#include "cam/charge_readout.h"

#include <stdexcept>

namespace asmcap {

ChargeArrayReadout::ChargeArrayReadout(std::size_t rows, std::size_t cols,
                                       const ChargeDomainParams& params,
                                       Rng& manufacture_rng)
    : params_(params), cols_(cols), sense_amp_(params.sa_noise_sigma) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("ChargeArrayReadout: empty dimensions");
  matchlines_.reserve(rows);
  row_offsets_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    matchlines_.emplace_back(cols, params_, manufacture_rng);
    // Residual systematic SA offset per row (post-cancellation).
    row_offsets_.push_back(
        manufacture_rng.normal(0.0, params_.sa_offset_sigma));
  }
}

double ChargeArrayReadout::settle_row(
    std::size_t row, const std::vector<std::uint64_t>& lane_words) const {
  if (row >= rows()) throw std::out_of_range("ChargeArrayReadout::settle_row");
  // The systematic SA offset is folded into the settled voltage: both are
  // fixed per silicon, so the SA effectively compares (V_ML + offset).
  return matchlines_[row].actual_vml(lane_words) + row_offsets_[row];
}

bool ChargeArrayReadout::decide(double vml, std::size_t threshold,
                                Rng& search_rng) const {
  return sense_amp_.below(vml, charge_vref(threshold, cols_, params_.vdd),
                          search_rng);
}

RowSilicon::RowSilicon(std::size_t cols, const ChargeDomainParams& params,
                       Rng& rng)
    : caps(cols) {
  // The draw order of ChargeArrayReadout's constructor: capacitors, then
  // the residual SA offset.
  total = draw_capacitances(caps, params, rng);
  offset = rng.normal(0.0, params.sa_offset_sigma);
}

double RowSilicon::settle(const std::vector<std::uint64_t>& lane_words,
                          double vdd) const {
  return divider_vml(caps, lane_words, total, vdd) + offset;
}

}  // namespace asmcap
