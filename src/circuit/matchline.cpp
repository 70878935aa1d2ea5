#include "circuit/matchline.h"

#include <algorithm>
#include <stdexcept>

#include "util/lane_flags.h"

namespace asmcap {

CurrentMatchline::CurrentMatchline(std::size_t n_cells,
                                   const CurrentDomainParams& params,
                                   Rng& manufacture_rng)
    : params_(params) {
  if (n_cells == 0) throw std::invalid_argument("CurrentMatchline: no cells");
  currents_.reserve(n_cells);
  const double sigma = params_.i_sigma_rel * params_.cell_current;
  for (std::size_t i = 0; i < n_cells; ++i) {
    double current = manufacture_rng.normal(params_.cell_current, sigma);
    current = std::clamp(current, params_.cell_current - 4 * sigma,
                         params_.cell_current + 4 * sigma);
    currents_.push_back(current);
  }
  ml_capacitance_ = params_.ml_cap_per_cell * static_cast<double>(n_cells);
}

double CurrentMatchline::volts_per_count() const {
  return params_.cell_current * params_.t_discharge / ml_capacitance_;
}

double CurrentMatchline::ideal_vml(std::size_t n_mis) const {
  const double drop = static_cast<double>(n_mis) * volts_per_count();
  return std::max(0.0, params_.vdd - drop);
}

double CurrentMatchline::nominal_drop(
    const std::vector<std::uint64_t>& lane_words) const {
  if (lane_words.size() != lane_word_count(cells()))
    throw std::invalid_argument("CurrentMatchline::nominal_drop: word count");
  double total_current = 0.0;
  for_each_lane_flag(lane_words,
                     [&](std::size_t i) { total_current += currents_[i]; });
  return total_current * params_.t_discharge / ml_capacitance_;
}

double CurrentMatchline::sample_from_drop(double nominal_drop,
                                          Rng& search_rng) const {
  // Sampling window with clock jitter (random each search): the jitter
  // scales the accumulated drop multiplicatively.
  const double jitter_factor =
      1.0 + search_rng.normal(0.0, params_.timing_jitter_rel);
  const double drop = std::max(0.0, nominal_drop * jitter_factor);
  double vml = std::max(0.0, params_.vdd - drop);  // clamps at ground
  // Sample-and-hold noise (kT/C + droop) corrupts the held value.
  vml += search_rng.normal(0.0, params_.sh_noise_sigma);
  return vml;
}

double charge_row_search_energy(std::size_t n_mis, std::size_t n_cells,
                                const ChargeDomainParams& params) {
  const auto n = static_cast<double>(n_cells);
  const auto k = static_cast<double>(n_mis);
  return k * (n - k) / n * params.cap_mean * params.vdd * params.vdd;
}

double current_row_search_energy(std::size_t n_mis, std::size_t n_cells,
                                 const CurrentDomainParams& params) {
  const double ml_capacitance =
      params.ml_cap_per_cell * static_cast<double>(n_cells);
  const double volts_per_count =
      params.cell_current * params.t_discharge / ml_capacitance;
  // Pre-charge: the matchline swings (on average) by the discharged amount
  // each cycle and is pulled back to VDD: E_pre = C_ML * VDD * dV. We charge
  // the full swing pessimistically for mismatching rows (the common case in
  // genome search, where most rows mismatch badly).
  const double ideal_drop =
      std::min(params.vdd, static_cast<double>(n_mis) * volts_per_count);
  const double e_precharge = ml_capacitance * params.vdd * ideal_drop;
  // Crowbar: mismatched cells conduct for the full discharge window (the
  // matchline driver and the pull-downs fight until sampling).
  const double e_discharge = static_cast<double>(n_mis) *
                             params.cell_current * params.vdd *
                             params.t_discharge;
  return e_precharge + e_discharge;
}

double CurrentMatchline::search_energy(std::size_t n_mis) const {
  return current_row_search_energy(n_mis, cells(), params_);
}

}  // namespace asmcap
