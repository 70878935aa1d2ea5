#include <algorithm>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"

namespace asmcap {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Circuit: return "circuit";
    case BackendKind::Functional: return "functional";
  }
  return "?";
}

CircuitBackend::CircuitBackend(const AsmcapConfig& config,
                               const std::vector<ChargeArrayReadout>& readouts,
                               const LiveDirectory& directory,
                               const PackedRowMatrix& rows)
    : readouts_(&readouts),
      dir_(&directory),
      rows_(&rows),
      array_rows_(config.array_rows),
      charge_(config.process.charge),
      ideal_sensing_(config.ideal_sensing),
      sl_driver_(config.array_cols) {}

PassResult CircuitBackend::run_pass(const Sequence& read, MatchMode mode,
                                    std::size_t threshold,
                                    const Rng& query_rng,
                                    std::uint64_t pass_salt) const {
  const double drive_energy = sl_driver_.drive_energy(read);
  const Rng pass_rng = query_rng.fork(pass_salt);
  // Ideal sensing decides count <= T exactly: an empty band.
  const ChargeDecisionBand band =
      ideal_sensing_
          ? ChargeDecisionBand{threshold + 1, threshold + 1}
          : charge_decision_band(charge_, read.size(), threshold);
  const PackedReadView view(read);
  const KernelOps& ops = active_kernel_ops();
  const auto count_block =
      mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block;
  const auto mismatch_words = mode == MatchMode::Hamming
                                  ? hamming_mismatch_words
                                  : ed_star_mismatch_words;
  std::vector<std::uint32_t> counts(array_rows_);
  std::vector<std::uint64_t> lane_words(view.words);

  PassResult result;
  result.decisions = BitVec(dir_->slots());
  for (std::size_t a = 0; a < readouts_->size(); ++a) {
    // An array with no live rows is never driven: its SL drivers stay
    // quiet and its matchlines never charge — the live database pays only
    // for silicon that holds live segments.
    if (a >= dir_->array_live.size() || dir_->array_live[a] == 0) continue;
    const ChargeArrayReadout& readout = (*readouts_)[a];
    const std::size_t first = a * array_rows_;
    const std::size_t rows = std::min(array_rows_, dir_->slots() - first);
    count_block(rows_->row(first), rows, view, counts.data());
    double pass_energy = drive_energy;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t slot = first + r;
      if (!dir_->slot_live(slot)) continue;
      const std::size_t count = counts[r];
      // Matchline energy per row (paper Eq. 1 with M = 1), booked in row
      // order. A dead row's all-mismatch line stores k(n-k)/n = 0, so
      // skipping it leaves the sum bit-identical.
      pass_energy += readout.matchline(r).search_energy(count);
      if (count < band.hit_below) {
        result.decisions.set(slot);
      } else if (band.contains(count)) {
        mismatch_words(rows_->row(slot), view, lane_words.data());
        // SA noise keyed by global segment id: placement-invariant.
        Rng decide_rng = pass_rng.fork(dir_->ids[slot]);
        result.decisions.set(
            slot, readout.decide(readout.settle_row(r, lane_words),
                                 threshold, decide_rng));
      }
    }
    result.energy_joules += pass_energy;
  }
  return result;
}

}  // namespace asmcap
