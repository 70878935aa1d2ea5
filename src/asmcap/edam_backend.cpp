// EDAM's current-domain pass (see backend.h) over the accelerator's one
// bit-sliced row store. It follows the engine's RNG discipline — per-decision
// streams forked from the pass stream, keyed by global segment id
// (docs/determinism.md) — so EDAM decisions are worker-count- and
// query-order-invariant like ASMCap's.

#include <algorithm>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"

namespace asmcap {

EdamCircuitBackend::EdamCircuitBackend(
    const SlicedRowStore& rows,
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

PassResult EdamCircuitBackend::run_pass(const PackedReadView& view,
                                        std::size_t threshold,
                                        const Rng& query_rng,
                                        std::uint64_t pass_salt) const {
  if (view.n != rows_->cols())
    throw std::invalid_argument("EdamCircuitBackend: read width mismatch");
  // The active tier counts the store block by block.
  const std::size_t rows = rows_->rows();
  const auto count_block = active_kernel_ops().count_block;
  const auto mismatch_words =
      view.neighbours ? ed_star_mismatch_words : hamming_mismatch_words;
  const Rng pass_rng = query_rng.fork(pass_salt);
  std::vector<std::uint64_t> group_words(
      sense_noise_ ? SlicedRowStore::kGroupRows * view.words : 0);
  std::vector<std::uint64_t> lane_words(sense_noise_ ? view.words : 0);
  BlockCounts block;

  PassResult result;
  result.decisions = BitVec(rows);
  for (std::size_t w = 0; w < result.decisions.words(); ++w) {
    const std::size_t first = w * SlicedRowStore::kGroupRows;
    const std::size_t last = std::min(rows, first + SlicedRowStore::kGroupRows);
    const std::size_t in_block = first % SlicedRowStore::kBlockRows;
    if (in_block == 0)
      count_block(*rows_, first / SlicedRowStore::kBlockRows, view,
                  threshold + 1, block);
    const std::uint16_t* counts = block.counts + in_block;
    for (std::size_t bit = 0; bit < last - first; ++bit)
      result.energy_joules += row_energy_[counts[bit]];
    if (!sense_noise_) {
      // count <= T, padding rows past the last one masked out.
      const std::uint64_t rows_in_word =
          last - first == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (last - first)) - 1;
      result.decisions.word(w) =
          block.below[in_block / SlicedRowStore::kGroupRows] & rows_in_word;
      continue;
    }
    // Sensing noise keyed by global segment id: placement-invariant.
    rows_->gather_group(w, group_words.data());
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < last - first; ++bit) {
      const std::size_t g = first + bit;
      mismatch_words(group_words.data() + bit * view.words, view,
                     lane_words.data());
      const CurrentArrayReadout& readout = (*readouts_)[g / array_rows_];
      const std::size_t r = g % array_rows_;
      Rng decide_rng = pass_rng.fork(static_cast<std::uint64_t>(g));
      word |= std::uint64_t{readout.decide_from_drop(
                  r, readout.drop_row(r, lane_words), threshold, decide_rng)}
              << bit;
    }
    result.decisions.word(w) = word;
  }
  return result;
}

}  // namespace asmcap
