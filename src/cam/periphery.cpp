#include "cam/periphery.h"

#include <stdexcept>

namespace asmcap {

SearchlineDriver::SearchlineDriver(std::size_t width,
                                   SearchlineDriverParams params)
    : width_(width), params_(params) {
  if (width == 0) throw std::invalid_argument("SearchlineDriver: zero width");
}

double SearchlineDriver::drive_energy(const Sequence& read) const {
  if (read.size() != width_)
    throw std::invalid_argument(
        "SearchlineDriver::drive_energy: width mismatch");
  return params_.energy_per_base * static_cast<double>(read.size());
}

double row_write_energy(std::size_t cols, const WriteCostParams& params) {
  return params.energy_per_base * static_cast<double>(cols);
}

}  // namespace asmcap
