#pragma once
// Sense amplifier: compares V_ML with V_ref and outputs the match decision.
// ASMCap (paper §III-B): output '1' (match) iff V_ML <= V_ref with
// V_ref = T / N * VDD, i.e. ED* <= T. The SA adds Gaussian input-referred
// noise; for the current-domain (EDAM) path the polarity flips (mismatches
// *discharge* the line, so match means V_ML *above* the reference).

#include <cstddef>

#include "circuit/process.h"
#include "util/rng.h"

namespace asmcap {

class SenseAmp {
 public:
  /// `noise_sigma` is the input-referred offset+noise sigma in volts,
  /// re-drawn per decision (offset cancellation leaves only the random
  /// component; the systematic part is folded into the same sigma).
  explicit SenseAmp(double noise_sigma) : noise_sigma_(noise_sigma) {}

  /// Match decision for "low means match" polarity (charge domain):
  /// returns true iff (vml + noise) <= vref.
  bool below(double vml, double vref, Rng& rng) const;

  /// Match decision for "high means match" polarity (current domain):
  /// returns true iff (vml + noise) >= vref.
  bool above(double vml, double vref, Rng& rng) const;

 private:
  double noise_sigma_;
};

/// Reference-voltage generator for the charge domain: V_ref places the
/// decision boundary halfway between the T-th and (T+1)-th level so both
/// sides get equal noise margin: V_ref = (T + 0.5) / N * VDD.
double charge_vref(std::size_t threshold, std::size_t n_cells, double vdd);

/// Mismatch counts whose charge-domain SA outcome at threshold T no
/// admissible silicon or noise draw can change. Counts below `hit_below`
/// always match, counts at or above `miss_from` never match; only counts
/// in [hit_below, miss_from) — the noise band — need a settled V_ML and an
/// SA draw. `miss_from == n_cells + 1` means no count is a certain miss.
struct ChargeDecisionBand {
  std::size_t hit_below = 0;
  std::size_t miss_from = 0;

  bool contains(std::size_t count) const {
    return count >= hit_below && count < miss_from;
  }
};

/// The band of an n_cells-wide row with capacitor mismatch, SA offset and
/// SA noise as in `params`. Every noise source is hard-bounded:
///  * Rng::normal() is Box-Muller over uniforms >= 2^-53, so a deviate
///    never exceeds D = sqrt(-2 ln 2^-53) ~ 8.57 sigma, and the SA sees at
///    most D * (sa_offset_sigma + sa_noise_sigma) of offset plus noise;
///  * capacitors are clamped at +/-4 sigma, so with
///    rho = (1 - 4*cap_sigma_rel) / (1 + 4*cap_sigma_rel) a row with c
///    mismatches settles within [rho, 1/rho] * (c / n_cells) * VDD.
/// Against V_ref = (T + 0.5) / n_cells * VDD, with margin M = D * (offset
/// + noise sigma) * n_cells / VDD in counts, c certainly misses when
/// c * rho > T + 0.5 + M and certainly matches when c / rho < T + 0.5 - M.
/// With rho <= 0 or VDD <= 0 nothing is certain: the band is every count.
ChargeDecisionBand charge_decision_band(const ChargeDomainParams& params,
                                        std::size_t n_cells,
                                        std::size_t threshold);

/// Reference for the current domain: level T sits at VDD - T*volts_per_count,
/// boundary again placed half a count further down.
double current_vref(std::size_t threshold, double vdd, double volts_per_count);

}  // namespace asmcap
