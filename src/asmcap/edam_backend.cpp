// EDAM execution backends (see backend.h): the comparator's two paths
// through the shared ExecutionBackend seam. Both follow the engine's RNG
// discipline — per-decision streams forked from the pass stream, keyed by
// global segment id (docs/determinism.md) — so EDAM decisions are
// worker-count- and query-order-invariant like ASMCap's.

#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"

namespace asmcap {

EdamCircuitBackend::EdamCircuitBackend(
    const std::vector<CamArray>& arrays,
    const std::vector<CurrentArrayReadout>& readouts,
    std::size_t segment_count, std::size_t array_rows, bool ideal_sensing,
    std::size_t segment_base)
    : arrays_(&arrays),
      readouts_(&readouts),
      segment_count_(segment_count),
      array_rows_(array_rows),
      ideal_sensing_(ideal_sensing),
      segment_base_(segment_base) {}

PassResult EdamCircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                                        std::size_t threshold,
                                        const Rng& query_rng,
                                        std::uint64_t pass_salt) const {
  const Rng pass_rng = query_rng.fork(pass_salt);
  PassResult result;
  result.decisions = BitVec(segment_count_);
  for (std::size_t a = 0; a < arrays_->size(); ++a) {
    const auto masks = (*arrays_)[a].search_masks(read, mode);
    for (std::size_t r = 0; r < array_rows_; ++r) {
      const std::size_t global = a * array_rows_ + r;
      if (global >= segment_count_) break;
      // Sensing noise keyed by global segment id: placement-invariant.
      Rng decide_rng = pass_rng.fork(
          static_cast<std::uint64_t>(segment_base_ + global));
      double row_energy = 0.0;
      const RowDecision decision = (*readouts_)[a].measure_row(
          r, masks[r], threshold, decide_rng, &row_energy);
      result.energy_joules += row_energy;
      result.decisions.set(global, ideal_sensing_
                                       ? masks[r].popcount() <= threshold
                                       : decision.match);
    }
  }
  return result;
}

EdamFunctionalBackend::EdamFunctionalBackend(
    const std::vector<Sequence>& segments, const CurrentDomainParams& params,
    std::size_t cols)
    : packed_(segments, cols), params_(params), cols_(cols) {}

PassResult EdamFunctionalBackend::run_pass(const Sequence& read,
                                           MatchMode mode,
                                           std::size_t threshold,
                                           const Rng& /*query_rng*/,
                                           std::uint64_t /*pass_salt*/) const {
  if (read.size() != cols_)
    throw std::invalid_argument("EdamFunctionalBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed segment matrix.
  const PackedReadView view(read);
  std::vector<std::uint32_t> counts(packed_.rows());
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      packed_.data(), packed_.rows(), view, counts.data());

  PassResult result;
  result.decisions = BitVec(packed_.rows());
  for (std::size_t g = 0; g < packed_.rows(); ++g) {
    if (counts[g] <= threshold) result.decisions.set(g);
    result.energy_joules +=
        current_row_search_energy(counts[g], cols_, params_);
  }
  return result;
}

}  // namespace asmcap
