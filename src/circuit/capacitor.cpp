#include "circuit/capacitor.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/matchline.h"
#include "util/lane_flags.h"

namespace asmcap {

double draw_capacitances(std::span<double> caps,
                         const ChargeDomainParams& params, Rng& rng) {
  const double sigma = params.cap_sigma_rel * params.cap_mean;
  double total = 0.0;
  for (double& cap : caps) {
    const double c = rng.normal(params.cap_mean, sigma);
    // Truncate at +/-4 sigma: a manufacturing screen; keeps capacitance
    // physical even under extreme relative sigma in stress tests.
    cap = std::clamp(c, params.cap_mean - 4 * sigma,
                     params.cap_mean + 4 * sigma);
    total += cap;
  }
  return total;
}

double divider_vml(std::span<const double> caps,
                   const std::vector<std::uint64_t>& lane_words, double total,
                   double vdd) {
  double mismatched = 0.0;
  for_each_lane_flag(lane_words,
                     [&](std::size_t i) { mismatched += caps[i]; });
  return mismatched / total * vdd;
}

CapacitorBank::CapacitorBank(std::size_t n, const ChargeDomainParams& params,
                             Rng& rng)
    : params_(params) {
  if (n == 0) throw std::invalid_argument("CapacitorBank: empty bank");
  caps_.resize(n);
  total_ = draw_capacitances(caps_, params_, rng);
}

double CapacitorBank::ideal_vml(std::size_t n_mis) const {
  if (n_mis > size()) throw std::out_of_range("CapacitorBank::ideal_vml");
  return static_cast<double>(n_mis) / static_cast<double>(size()) * params_.vdd;
}

double CapacitorBank::actual_vml(
    const std::vector<std::uint64_t>& lane_words) const {
  if (lane_words.size() != lane_word_count(size()))
    throw std::invalid_argument("CapacitorBank::actual_vml: word count");
  return divider_vml(caps_, lane_words, total_, params_.vdd);
}

double CapacitorBank::vml_variance(std::size_t n_mis) const {
  const auto n = static_cast<double>(size());
  const auto k = static_cast<double>(n_mis);
  const double rel = params_.cap_sigma_rel;
  return k * (n - k) / (n * n * n) * rel * rel * params_.vdd * params_.vdd;
}

double CapacitorBank::search_energy(std::size_t n_mis) const {
  return charge_row_search_energy(n_mis, size(), params_);
}

}  // namespace asmcap
