// EDAM's current-domain pass (see backend.h) over the accelerator's one
// packed row store. It follows the engine's RNG discipline — per-decision
// streams forked from the pass stream, keyed by global segment id
// (docs/determinism.md) — so EDAM decisions are worker-count- and
// query-order-invariant like ASMCap's.

#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"

namespace asmcap {

EdamCircuitBackend::EdamCircuitBackend(
    const PackedRowMatrix& rows,
    const std::vector<CurrentArrayReadout>& readouts, std::size_t array_rows,
    const CurrentDomainParams& params, bool sense_noise)
    : rows_(&rows),
      readouts_(&readouts),
      array_rows_(array_rows),
      sense_noise_(sense_noise),
      row_energy_(rows.cols() + 1) {
  for (std::size_t k = 0; k <= rows.cols(); ++k)
    row_energy_[k] = current_row_search_energy(k, rows.cols(), params);
}

PassResult EdamCircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                                        std::size_t threshold,
                                        const Rng& query_rng,
                                        std::uint64_t pass_salt) const {
  if (read.size() != rows_->cols())
    throw std::invalid_argument("EdamCircuitBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed row store.
  const PackedReadView view(read);
  const std::size_t rows = rows_->rows();
  std::vector<std::uint32_t> counts(rows);
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      rows_->data(), rows, view, counts.data());
  const auto mismatch_words = mode == MatchMode::Hamming
                                  ? hamming_mismatch_words
                                  : ed_star_mismatch_words;
  const Rng pass_rng = query_rng.fork(pass_salt);
  std::vector<std::uint64_t> lane_words(sense_noise_ ? view.words : 0);

  PassResult result;
  result.decisions = BitVec(rows);
  for (std::size_t g = 0; g < rows; ++g) {
    result.energy_joules += row_energy_[counts[g]];
    if (!sense_noise_) {
      result.decisions.set(g, counts[g] <= threshold);
      continue;
    }
    // Sensing noise keyed by global segment id: placement-invariant.
    mismatch_words(rows_->row(g), view, lane_words.data());
    const CurrentArrayReadout& readout = (*readouts_)[g / array_rows_];
    const std::size_t r = g % array_rows_;
    Rng decide_rng = pass_rng.fork(static_cast<std::uint64_t>(g));
    result.decisions.set(
        g, readout.decide_from_drop(r, readout.drop_row(r, lane_words),
                                    threshold, decide_rng));
  }
  return result;
}

}  // namespace asmcap
