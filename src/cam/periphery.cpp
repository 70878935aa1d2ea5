#include "cam/periphery.h"

namespace asmcap {

double row_write_energy(std::size_t cols, const WriteCostParams& params) {
  return params.energy_per_base * static_cast<double>(cols);
}

}  // namespace asmcap
