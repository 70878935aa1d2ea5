#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include "align/kernels.h"
#include "asmcap/backend.h"
#include "circuit/matchline.h"
#include "circuit/sense_amp.h"

namespace asmcap {

namespace {
constexpr std::size_t kWordBits = 64;

// The matchline-energy walk of one 64-slot decision word for N passes:
// adds each live row's Eq. 1 energy, from its count in each pass's block,
// to that pass's accumulator, in ascending slot order. N is a compile-time
// constant so the N accumulators stay in registers as N independent add
// chains. A dead row's all-mismatch line stores k(n-k)/n = 0, so skipping
// it is exact.
template <std::size_t N>
void add_row_energy(std::uint64_t live, const BlockCounts* blocks,
                    std::size_t in_block, const double* row_energy,
                    double* energy) {
  double acc[N];
  for (std::size_t p = 0; p < N; ++p) acc[p] = energy[p];
  for (std::uint64_t x = live; x != 0; x &= x - 1) {
    const std::size_t row =
        in_block + static_cast<std::size_t>(std::countr_zero(x));
    for (std::size_t p = 0; p < N; ++p)
      acc[p] += row_energy[blocks[p].counts[row]];
  }
  for (std::size_t p = 0; p < N; ++p) energy[p] = acc[p];
}

using EnergyWalk = void (*)(std::uint64_t, const BlockCounts*, std::size_t,
                            const double*, double*);
// Longer pass lists walk in groups of kMaxWalkPasses.
constexpr std::size_t kMaxWalkPasses = 8;

template <std::size_t... I>
constexpr std::array<EnergyWalk, sizeof...(I)> energy_walks(
    std::index_sequence<I...>) {
  return {&add_row_energy<I + 1>...};
}
// kEnergyWalks[n - 1] walks n passes.
constexpr auto kEnergyWalks =
    energy_walks(std::make_index_sequence<kMaxWalkPasses>{});
}  // namespace

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Circuit: return "circuit";
    case BackendKind::Functional: return "functional";
  }
  return "?";
}

CircuitBackend::CircuitBackend(const AsmcapConfig& config)
    : array_rows_(config.array_rows),
      cols_(config.array_cols),
      charge_(config.process.charge),
      sl_params_(),
      row_energy_(config.array_cols + 1) {
  for (std::size_t k = 0; k <= cols_; ++k)
    row_energy_[k] = charge_row_search_energy(k, cols_, charge_);
}

std::vector<PassResult> CircuitBackend::run_passes(
    const SlicedRowStore& rows, const LiveDirectory& directory,
    const BankSilicon* silicon,
    std::span<const PassSpec> passes, std::size_t threshold,
    const Rng& query_rng) const {
  for (const PassSpec& pass : passes)
    if (pass.view->n != cols_)
      throw std::invalid_argument("CircuitBackend: read width mismatch");
  // Ideal sensing decides count <= T exactly: an empty band.
  const bool sense_noise = silicon != nullptr;
  const ChargeDecisionBand band =
      sense_noise ? charge_decision_band(charge_, cols_, threshold)
                  : ChargeDecisionBand{threshold + 1, threshold + 1};
  // The active tier counts the store block by block, once per pass while
  // the block is in cache (tombstoned and padding slots are counted too —
  // cheaper than skipping — and masked below).
  const std::size_t slots = rows.rows();
  const std::size_t pass_count = passes.size();
  const auto count_block = active_kernel_ops().count_block;
  std::vector<Rng> pass_rngs;
  if (sense_noise) {
    pass_rngs.reserve(pass_count);
    for (const PassSpec& pass : passes)
      pass_rngs.push_back(query_rng.fork(pass.salt));
  }
  std::vector<std::uint64_t> row_words(sense_noise ? rows.words_per_row() : 0);
  std::vector<std::uint64_t> lane_words(row_words.size());
  const SenseAmp sense_amp(charge_.sa_noise_sigma);
  const double vref = charge_vref(threshold, cols_, charge_.vdd);
  std::vector<BlockCounts> blocks(pass_count);

  // Every array holding at least one live row drives its search lines once
  // per pass; all-dead arrays are never driven.
  std::vector<double> energy(
      pass_count, static_cast<double>(directory.arrays_in_use()) *
                      sl_params_.energy_per_base * static_cast<double>(cols_));
  std::vector<PassResult> results(pass_count);
  for (PassResult& result : results) result.decisions = BitVec(slots);
  const std::size_t words = (slots + kWordBits - 1) / kWordBits;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t first = w * kWordBits;
    const std::size_t in_block = first % SlicedRowStore::kBlockRows;
    if (in_block == 0)
      for (std::size_t p = 0; p < pass_count; ++p)
        count_block(rows, first / SlicedRowStore::kBlockRows,
                    *passes[p].view, band.hit_below, blocks[p]);
    const std::uint64_t live = directory.live.word(w);
    for (std::size_t p = 0; p < pass_count; ++p) {
      // Out-of-band decisions straight from the kernel's count < hit_below
      // words; dead and padding slots are masked out.
      std::uint64_t word = blocks[p].below[in_block / kWordBits] & live;
      if (band.hit_below < band.miss_from) {
        // In-band live rows settle on their silicon and draw SA noise
        // keyed by global segment id: placement-invariant.
        const std::uint16_t* counts = blocks[p].counts + in_block;
        std::uint64_t in_band = 0;
        for (std::size_t bit = 0; bit < kWordBits; ++bit)
          in_band |= std::uint64_t{band.contains(counts[bit])} << bit;
        for (in_band &= live; in_band != 0; in_band &= in_band - 1) {
          const auto bit =
              static_cast<std::size_t>(std::countr_zero(in_band));
          const std::size_t slot = first + bit;
          rows.gather_row(slot, row_words.data());
          mismatch_words(row_words.data(), *passes[p].view,
                         lane_words.data());
          const double vml = (*silicon)[slot / array_rows_]->settle_row(
              slot % array_rows_, lane_words, charge_.vdd);
          Rng decide_rng = pass_rngs[p].fork(directory.ids[slot]);
          const bool hit = sense_amp.below(vml, vref, decide_rng);
          word |= std::uint64_t{hit} << bit;
        }
      }
      results[p].decisions.word(w) = word;
    }
    // Matchline energy: one walk over the live bits per group of passes.
    for (std::size_t p = 0; p < pass_count; p += kMaxWalkPasses)
      kEnergyWalks[std::min(kMaxWalkPasses, pass_count - p) - 1](
          live, blocks.data() + p, in_block, row_energy_.data(),
          energy.data() + p);
  }
  for (std::size_t p = 0; p < pass_count; ++p)
    results[p].energy_joules = energy[p];
  return results;
}

}  // namespace asmcap
