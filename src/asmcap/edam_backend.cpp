// EDAM execution backends (see backend.h): the comparator's two paths
// through the shared ExecutionBackend seam, both over the accelerator's
// one packed row store. Both follow the engine's RNG discipline —
// per-decision streams forked from the pass stream, keyed by global
// segment id (docs/determinism.md) — so EDAM decisions are
// worker-count- and query-order-invariant like ASMCap's.

#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"
#include "util/lane_flags.h"

namespace asmcap {

EdamCircuitBackend::EdamCircuitBackend(
    const PackedRowMatrix& rows,
    const std::vector<CurrentArrayReadout>& readouts, std::size_t array_rows,
    bool ideal_sensing)
    : rows_(&rows),
      readouts_(&readouts),
      array_rows_(array_rows),
      ideal_sensing_(ideal_sensing) {}

PassResult EdamCircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                                        std::size_t threshold,
                                        const Rng& query_rng,
                                        std::uint64_t pass_salt) const {
  if (read.size() != rows_->cols())
    throw std::invalid_argument("EdamCircuitBackend: read width mismatch");
  const Rng pass_rng = query_rng.fork(pass_salt);
  const PackedReadView view(read);
  const auto mismatch_words = mode == MatchMode::Hamming
                                  ? hamming_mismatch_words
                                  : ed_star_mismatch_words;
  std::vector<std::uint64_t> lane_words(view.words);

  PassResult result;
  result.decisions = BitVec(rows_->rows());
  for (std::size_t g = 0; g < rows_->rows(); ++g) {
    mismatch_words(rows_->row(g), view, lane_words.data());
    const CurrentArrayReadout& readout = (*readouts_)[g / array_rows_];
    const std::size_t r = g % array_rows_;
    const std::size_t count = count_lane_flags(lane_words);
    result.energy_joules += readout.matchline(r).search_energy(count);
    if (ideal_sensing_) {
      result.decisions.set(g, count <= threshold);
      continue;
    }
    // Sensing noise keyed by global segment id: placement-invariant.
    Rng decide_rng = pass_rng.fork(static_cast<std::uint64_t>(g));
    result.decisions.set(
        g, readout.decide_from_drop(r, readout.drop_row(r, lane_words),
                                    threshold, decide_rng));
  }
  return result;
}

EdamFunctionalBackend::EdamFunctionalBackend(const PackedRowMatrix& rows,
                                             const CurrentDomainParams& params)
    : rows_(&rows), params_(params) {}

PassResult EdamFunctionalBackend::run_pass(const Sequence& read,
                                           MatchMode mode,
                                           std::size_t threshold,
                                           const Rng& /*query_rng*/,
                                           std::uint64_t /*pass_salt*/) const {
  if (read.size() != rows_->cols())
    throw std::invalid_argument("EdamFunctionalBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed row store.
  const PackedReadView view(read);
  std::vector<std::uint32_t> counts(rows_->rows());
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      rows_->data(), rows_->rows(), view, counts.data());

  PassResult result;
  result.decisions = BitVec(rows_->rows());
  for (std::size_t g = 0; g < rows_->rows(); ++g) {
    if (counts[g] <= threshold) result.decisions.set(g);
    result.energy_joules +=
        current_row_search_energy(counts[g], rows_->cols(), params_);
  }
  return result;
}

}  // namespace asmcap
