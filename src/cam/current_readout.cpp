#include "cam/current_readout.h"

#include <stdexcept>

namespace asmcap {

CurrentArrayReadout::CurrentArrayReadout(std::size_t rows, std::size_t cols,
                                         const CurrentDomainParams& params,
                                         Rng& manufacture_rng)
    : params_(params), cols_(cols), sense_amp_(params.sa_noise_sigma) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("CurrentArrayReadout: empty dimensions");
  matchlines_.reserve(rows);
  row_offsets_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    matchlines_.emplace_back(cols, params_, manufacture_rng);
    // Systematic SA offset: the dynamic signal cannot be offset-cancelled.
    row_offsets_.push_back(
        manufacture_rng.normal(0.0, params_.sa_offset_sigma));
  }
}

double CurrentArrayReadout::drop_row(
    std::size_t row, const std::vector<std::uint64_t>& lane_words) const {
  if (row >= rows()) throw std::out_of_range("CurrentArrayReadout::drop_row");
  return matchlines_[row].nominal_drop(lane_words);
}

bool CurrentArrayReadout::decide_from_drop(std::size_t row,
                                           double nominal_drop,
                                           std::size_t threshold,
                                           Rng& search_rng) const {
  if (row >= rows())
    throw std::out_of_range("CurrentArrayReadout::decide_from_drop");
  const CurrentMatchline& line = matchlines_[row];
  const double vml =
      line.sample_from_drop(nominal_drop, search_rng) + row_offsets_[row];
  const double vref =
      current_vref(threshold, params_.vdd, line.volts_per_count());
  return sense_amp_.above(vml, vref, search_rng);
}

}  // namespace asmcap
