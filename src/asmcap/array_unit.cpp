#include "asmcap/array_unit.h"

namespace asmcap {

AsmcapArrayUnit::AsmcapArrayUnit(std::size_t rows, std::size_t cols,
                                 const ChargeDomainParams& params,
                                 bool ideal_sensing, Rng& manufacture_rng)
    : array_(rows, cols),
      readout_(rows, cols, params, manufacture_rng),
      sl_driver_(cols),
      ideal_sensing_(ideal_sensing) {}

void AsmcapArrayUnit::write_row(std::size_t row, const Sequence& segment,
                                Rng& silicon_rng) {
  array_.write_row(row, segment);
  readout_.remanufacture_row(row, silicon_rng);
}

RawSearch AsmcapArrayUnit::measure(const Sequence& read, MatchMode mode,
                                   double* energy_joules) const {
  double energy = sl_driver_.drive_energy(read);
  // One shared PackedReadView per pass (inside search_masks): the
  // read-derived kernel work is done once for the whole array, not once
  // per row.
  const std::vector<BitVec> masks = array_.search_masks(read, mode);
  RawSearch raw;
  raw.counts.reserve(rows());
  raw.vml.reserve(rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    const std::size_t count = masks[r].popcount();
    raw.counts.push_back(count);
    raw.vml.push_back(readout_.settle_row(r, masks[r]));
    // Matchline energy per row (paper Eq. 1 with M = 1).
    energy += readout_.matchline(r).search_energy(count);
  }
  if (energy_joules != nullptr) *energy_joules = energy;
  return raw;
}

bool AsmcapArrayUnit::decide(std::size_t count, double vml,
                             std::size_t threshold, Rng& search_rng) const {
  if (ideal_sensing_) return ChargeArrayReadout::ideal_decision(count, threshold);
  return readout_.decide(vml, threshold, search_rng);
}

}  // namespace asmcap
