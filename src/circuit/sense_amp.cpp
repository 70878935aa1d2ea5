#include "circuit/sense_amp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace asmcap {

bool SenseAmp::below(double vml, double vref, Rng& rng) const {
  const double noisy =
      noise_sigma_ > 0.0 ? vml + rng.normal(0.0, noise_sigma_) : vml;
  return noisy <= vref;
}

bool SenseAmp::above(double vml, double vref, Rng& rng) const {
  const double noisy =
      noise_sigma_ > 0.0 ? vml + rng.normal(0.0, noise_sigma_) : vml;
  return noisy >= vref;
}

double charge_vref(std::size_t threshold, std::size_t n_cells, double vdd) {
  if (n_cells == 0) throw std::invalid_argument("charge_vref: n_cells == 0");
  return (static_cast<double>(threshold) + 0.5) /
         static_cast<double>(n_cells) * vdd;
}

ChargeDecisionBand charge_decision_band(const ChargeDomainParams& params,
                                        std::size_t n_cells,
                                        std::size_t threshold) {
  const double m = static_cast<double>(n_cells);
  ChargeDecisionBand band{0, n_cells + 1};
  const double rho = (1.0 - 4.0 * params.cap_sigma_rel) /
                     (1.0 + 4.0 * params.cap_sigma_rel);
  if (rho <= 0.0 || params.vdd <= 0.0) return band;
  const double deviate_bound = std::sqrt(-2.0 * std::log(0x1.0p-53));
  const double margin_counts =
      deviate_bound * (params.sa_offset_sigma + params.sa_noise_sigma) * m /
      params.vdd;
  const double level = static_cast<double>(threshold) + 0.5;
  // Smallest integer c with c * rho > level + margin.
  const double miss = std::floor((level + margin_counts) / rho) + 1.0;
  if (miss > 0.0 && miss <= m) band.miss_from = static_cast<std::size_t>(miss);
  // Every integer c < (level - margin) * rho.
  const double hit = (level - margin_counts) * rho;
  if (hit > 0.0)
    band.hit_below = std::min(static_cast<std::size_t>(std::ceil(hit)),
                              band.miss_from);
  return band;
}

double current_vref(std::size_t threshold, double vdd, double volts_per_count) {
  return vdd - (static_cast<double>(threshold) + 0.5) * volts_per_count;
}

}  // namespace asmcap
