#pragma once
// Matchline readout models.
//
// Charge domain (ASMCap, Fig. 3b): V_ML settles at the capacitive-divider
// value — time-independent, linear in the mismatch count. The only noise a
// search sees is the (systematic) capacitor mismatch plus the SA's random
// input-referred noise. A charge-domain row is its CapacitorBank
// (circuit/capacitor.h).
//
// Current domain (EDAM, Fig. 3a): the pre-charged matchline discharges with
// a slope proportional to the mismatch count; the sampled voltage inherits
// per-cell current mismatch (systematic), sampling-clock jitter and
// sample-and-hold noise (random per search), and clamps at ground — the
// non-linearity that compresses high-mismatch levels.
//
// Both read a row's mismatched cells as lane words (util/lane_flags.h), the
// layout the align/kernels mismatch-word forms emit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/process.h"
#include "util/rng.h"

namespace asmcap {

/// Charge-domain search energy of one row, paper Eq. (1) with M = 1:
/// E = n_mis (N - n_mis) / N * µ_C * VDD^2. A pure function of the
/// mismatch count — the manufactured capacitors do not enter. Shared by
/// CapacitorBank::search_energy and the ASMCap pass's per-count table.
double charge_row_search_energy(std::size_t n_mis, std::size_t n_cells,
                                const ChargeDomainParams& params);

/// Nominal current-domain search energy of one row (matchline pre-charge +
/// crowbar discharge), a pure function of the mismatch count and the
/// process parameters — the manufactured per-cell currents do not enter.
/// Shared by CurrentMatchline::search_energy and the EDAM pass's per-count
/// table.
double current_row_search_energy(std::size_t n_mis, std::size_t n_cells,
                                 const CurrentDomainParams& params);

/// One current-domain row: owns its per-cell discharge currents.
class CurrentMatchline {
 public:
  CurrentMatchline(std::size_t n_cells, const CurrentDomainParams& params,
                   Rng& manufacture_rng);

  /// Systematic (per-silicon) part of the discharge for the mismatched
  /// cells flagged in `lane_words` (lane_word_count(cells()) words, tail
  /// lanes zero): the nominal voltage drop including current mismatch but
  /// before jitter, clamping, and S/H noise, with the cell currents summed
  /// in ascending cell order. Cacheable per (row, cells); feed to
  /// sample_from_drop per search. Throws std::invalid_argument on a wrong
  /// word count.
  double nominal_drop(const std::vector<std::uint64_t>& lane_words) const;

  /// Applies the random per-search effects (clock jitter, then S/H noise,
  /// drawn from `search_rng`) to a nominal drop and returns the held sample
  /// (clamped at ground).
  double sample_from_drop(double nominal_drop, Rng& search_rng) const;

  /// Ideal (noise-free, nominal-current) sampled voltage for a count.
  double ideal_vml(std::size_t n_mis) const;

  /// Volts one mismatch count is worth at the sampling instant.
  double volts_per_count() const;

  /// Energy of one search: pre-charge of the matchline capacitance plus the
  /// integrated discharge current of the mismatched cells over the window.
  double search_energy(std::size_t n_mis) const;

  std::size_t cells() const { return currents_.size(); }
  const CurrentDomainParams& params() const { return params_; }

 private:
  CurrentDomainParams params_;
  std::vector<double> currents_;  ///< Per-cell discharge currents [A].
  double ml_capacitance_ = 0.0;   ///< Total matchline capacitance [F].
};

}  // namespace asmcap
