#include "circuit/capacitor.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/matchline.h"
#include "util/lane_flags.h"

namespace asmcap {

CapacitorBank::CapacitorBank(std::size_t n, const ChargeDomainParams& params,
                             Rng& rng)
    : params_(params) {
  if (n == 0) throw std::invalid_argument("CapacitorBank: empty bank");
  caps_.reserve(n);
  const double sigma = params_.cap_sigma_rel * params_.cap_mean;
  for (std::size_t i = 0; i < n; ++i) {
    double c = rng.normal(params_.cap_mean, sigma);
    // Truncate at +/-4 sigma: a manufacturing screen; keeps capacitance
    // physical even under extreme relative sigma in stress tests.
    c = std::clamp(c, params_.cap_mean - 4 * sigma, params_.cap_mean + 4 * sigma);
    caps_.push_back(c);
    total_ += c;
  }
}

double CapacitorBank::ideal_vml(std::size_t n_mis) const {
  if (n_mis > size()) throw std::out_of_range("CapacitorBank::ideal_vml");
  return static_cast<double>(n_mis) / static_cast<double>(size()) * params_.vdd;
}

double CapacitorBank::actual_vml(
    const std::vector<std::uint64_t>& lane_words) const {
  if (lane_words.size() != lane_word_count(size()))
    throw std::invalid_argument("CapacitorBank::actual_vml: word count");
  double mismatched = 0.0;
  for_each_lane_flag(lane_words,
                     [&](std::size_t i) { mismatched += caps_[i]; });
  return mismatched / total_ * params_.vdd;
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
