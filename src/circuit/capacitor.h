#pragma once
// Capacitor bank of one charge-domain matchline row. Per-cell capacitances
// are drawn once at construction (manufacturing mismatch is systematic: the
// same silicon answers every search), matching the i.i.d. normal model the
// paper adopts from CapCAM [17]. The mismatched cells arrive as lane words
// (util/lane_flags.h), the layout the align/kernels mismatch-word forms
// emit.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/process.h"
#include "util/rng.h"

namespace asmcap {

/// Draws caps.size() capacitances, in cell order, from N(cap_mean,
/// (cap_sigma_rel*cap_mean)^2), each truncated at ±4σ to keep it physical,
/// and returns their total, summed in ascending cell order. The one
/// manufacturing model: CapacitorBank and the banks' flat silicon
/// (cam/charge_readout.h) both draw through it.
double draw_capacitances(std::span<double> caps,
                         const ChargeDomainParams& params, Rng& rng);

/// The capacitive divider: V_ML = sum of `caps` over the cells flagged in
/// `lane_words` (summed in ascending cell order) / `total` * `vdd`. `caps`
/// must cover every flagged cell. The one divider: CapacitorBank's
/// actual_vml and the banks' noisy pass both settle through it.
double divider_vml(std::span<const double> caps,
                   const std::vector<std::uint64_t>& lane_words, double total,
                   double vdd);

class CapacitorBank {
 public:
  /// Samples `n` capacitances (draw_capacitances).
  CapacitorBank(std::size_t n, const ChargeDomainParams& params, Rng& rng);

  /// Ideal (mismatch-free) matchline voltage for a given mismatch count:
  /// V_ML = n_mis / N * VDD.
  double ideal_vml(std::size_t n_mis) const;

  /// Actual settled matchline voltage for the mismatched cells flagged in
  /// `lane_words` (lane_word_count(size()) words, tail lanes zero): the
  /// capacitive divider (divider_vml) V_ML = sum_mis(C_i) / sum_all(C_i) *
  /// VDD, with the mismatched caps summed in ascending cell order. Throws
  /// std::invalid_argument on a wrong word count.
  double actual_vml(const std::vector<std::uint64_t>& lane_words) const;

  /// Paper Eq. (2): analytic variance of V_ML for a mismatch count.
  double vml_variance(std::size_t n_mis) const;

  /// Paper Eq. (1) for a single row (M = 1): energy of one search with the
  /// given mismatch count (charge_row_search_energy, circuit/matchline.h).
  double search_energy(std::size_t n_mis) const;

  std::size_t size() const { return caps_.size(); }
  double capacitance(std::size_t i) const { return caps_.at(i); }
  double total_capacitance() const { return total_; }
  const ChargeDomainParams& params() const { return params_; }

 private:
  ChargeDomainParams params_;
  std::vector<double> caps_;
  double total_ = 0.0;
};

}  // namespace asmcap
