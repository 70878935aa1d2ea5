#include <bit>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"

namespace asmcap {

namespace {
constexpr std::size_t kWordBits = 64;
}  // namespace

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
                               const SlicedRowStore& rows, bool sense_noise)
    : readouts_(&readouts),
      dir_(&directory),
      rows_(&rows),
      array_rows_(config.array_rows),
      cols_(config.array_cols),
      charge_(config.process.charge),
      sense_noise_(sense_noise),
      sl_params_(),
      row_energy_(config.array_cols + 1) {
  for (std::size_t k = 0; k <= cols_; ++k)
    row_energy_[k] = charge_row_search_energy(k, cols_, charge_);
}

PassResult CircuitBackend::run_pass(const PackedReadView& view,
                                    std::size_t threshold,
                                    const Rng& query_rng,
                                    std::uint64_t pass_salt) const {
  if (view.n != cols_)
    throw std::invalid_argument("CircuitBackend: read width mismatch");
  // Ideal sensing decides count <= T exactly: an empty band.
  const ChargeDecisionBand band =
      sense_noise_ ? charge_decision_band(charge_, cols_, threshold)
                   : ChargeDecisionBand{threshold + 1, threshold + 1};
  // The active tier counts the store block by block (tombstoned and
  // padding slots are counted too — cheaper than skipping — and masked
  // below).
  const std::size_t slots = rows_->rows();
  const auto count_block = active_kernel_ops().count_block;
  const auto mismatch_words =
      view.neighbours ? ed_star_mismatch_words : hamming_mismatch_words;
  const Rng pass_rng = query_rng.fork(pass_salt);
  std::vector<std::uint64_t> row_words(sense_noise_ ? view.words : 0);
  std::vector<std::uint64_t> lane_words(sense_noise_ ? view.words : 0);
  BlockCounts block;

  PassResult result;
  result.decisions = BitVec(slots);
  // Every array holding at least one live row drives its search lines once
  // per pass; all-dead arrays are never driven.
  double energy = static_cast<double>(dir_->arrays_in_use()) *
                  sl_params_.energy_per_base * static_cast<double>(cols_);
  const double* row_energy = row_energy_.data();
  for (std::size_t w = 0; w < result.decisions.words(); ++w) {
    const std::size_t first = w * kWordBits;
    const std::size_t in_block = first % SlicedRowStore::kBlockRows;
    if (in_block == 0)
      count_block(*rows_, first / SlicedRowStore::kBlockRows, view,
                  band.hit_below, block);
    const std::uint16_t* counts = block.counts + in_block;
    const std::uint64_t live = dir_->live.word(w);
    // Out-of-band decisions straight from the kernel's count < hit_below
    // words; dead and padding slots are masked out.
    std::uint64_t word = block.below[in_block / kWordBits] & live;
    // Matchline energy in ascending live-slot order (the floating-point
    // summation order is fixed). A dead row's all-mismatch line stores
    // k(n-k)/n = 0, so skipping it is exact.
    for (std::uint64_t x = live; x != 0; x &= x - 1)
      energy += row_energy[counts[std::countr_zero(x)]];
    if (band.hit_below < band.miss_from) {
      // In-band live rows settle on their silicon and draw SA noise keyed
      // by global segment id: placement-invariant.
      std::uint64_t in_band = 0;
      for (std::size_t bit = 0; bit < kWordBits; ++bit)
        in_band |= std::uint64_t{band.contains(counts[bit])} << bit;
      for (in_band &= live; in_band != 0; in_band &= in_band - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(in_band));
        const std::size_t slot = first + bit;
        const ChargeArrayReadout& readout = (*readouts_)[slot / array_rows_];
        rows_->gather_row(slot, row_words.data());
        mismatch_words(row_words.data(), view, lane_words.data());
        Rng decide_rng = pass_rng.fork(dir_->ids[slot]);
        const bool hit = readout.decide(
            readout.settle_row(slot % array_rows_, lane_words), threshold,
            decide_rng);
        word |= std::uint64_t{hit} << bit;
      }
    }
    result.decisions.word(w) = word;
  }
  result.energy_joules = energy;
  return result;
}

}  // namespace asmcap
