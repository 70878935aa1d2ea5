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

// Whether any of a decision word's 64 counts lies in the band [low, low +
// width): one branch-free, vectorizable test, so a word whose rows all
// decide from their counts (nearly every word) builds no in-band bits.
bool any_in_band(const std::uint16_t* counts, std::uint32_t low,
                 std::uint32_t width) {
  std::uint32_t any = 0;
  for (std::size_t bit = 0; bit < kWordBits; ++bit) {
    const std::uint32_t above_low = std::uint32_t{counts[bit]} - low;
    any |= static_cast<std::uint32_t>(above_low < width);
  }
  return any != 0;
}
}  // namespace

const RowSilicon* SiliconMemo::find(std::uint64_t id) {
  MutexLock lock(mutex_);
  const auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

const RowSilicon& SiliconMemo::insert(std::uint64_t id, RowSilicon row) {
  MutexLock lock(mutex_);
  return rows_.try_emplace(id, std::move(row)).first->second;
}

std::size_t SiliconMemo::size() const {
  MutexLock lock(mutex_);
  return rows_.size();
}

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Circuit: return "circuit";
    case BackendKind::Functional: return "functional";
  }
  return "?";
}

CircuitBackend::CircuitBackend(const AsmcapConfig& config)
    : cols_(config.array_cols),
      charge_(config.process.charge),
      silicon_root_(Rng(config.seed).fork(0x51C0)),
      sl_params_(),
      row_energy_(config.array_cols + 1) {
  for (std::size_t k = 0; k <= cols_; ++k)
    row_energy_[k] = charge_row_search_energy(k, cols_, charge_);
}

const RowSilicon& CircuitBackend::row_silicon(SiliconMemo& silicon,
                                              std::uint64_t id) const {
  if (const RowSilicon* row = silicon.find(id)) return *row;
  // The row's analog silicon is a pure function of its global id: the
  // segment decides identically in whichever slot, array, or bank it
  // lands, and whichever read or thread draws its silicon first
  // (docs/determinism.md rule 8).
  Rng rng = silicon_root_.fork(id);
  return silicon.insert(id, RowSilicon(cols_, charge_, rng));
}

std::vector<PassResult> CircuitBackend::run_passes(
    const SlicedRowStore& rows, const LiveDirectory& directory,
    SiliconMemo* silicon, std::span<const PassSpec> passes,
    std::size_t threshold, const Rng& query_rng) const {
  for (const PassSpec& pass : passes)
    if (pass.view->n != cols_)
      throw std::invalid_argument("CircuitBackend: read width mismatch");
  // Ideal sensing decides count <= T exactly: an empty band.
  const ChargeDecisionBand band =
      silicon != nullptr ? charge_decision_band(charge_, cols_, threshold)
                         : ChargeDecisionBand{threshold + 1, threshold + 1};
  const auto band_low = static_cast<std::uint32_t>(band.hit_below);
  const auto band_width =
      static_cast<std::uint32_t>(band.miss_from - band.hit_below);
  // The active tier counts the store block by block, once per pass while
  // the block is in cache (tombstoned and padding slots are counted too —
  // cheaper than skipping — and masked below).
  const std::size_t slots = rows.rows();
  const std::size_t pass_count = passes.size();
  const auto count_block = active_kernel_ops().count_block;
  // The in-band state (pass streams, one row's packed and lane words),
  // made when the first in-band live row shows.
  std::vector<Rng> pass_rngs;
  std::vector<std::uint64_t> row_words;
  std::vector<std::uint64_t> lane_words;
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
      const std::uint16_t* counts = blocks[p].counts + in_block;
      if (band_width != 0 && any_in_band(counts, band_low, band_width)) {
        // In-band live rows settle on their silicon and draw SA noise
        // keyed by global segment id: placement-invariant.
        std::uint64_t in_band = 0;
        for (std::size_t bit = 0; bit < kWordBits; ++bit)
          in_band |= std::uint64_t{band.contains(counts[bit])} << bit;
        in_band &= live;
        if (in_band != 0 && pass_rngs.empty()) {
          pass_rngs.reserve(pass_count);
          for (const PassSpec& pass : passes)
            pass_rngs.push_back(query_rng.fork(pass.salt));
          row_words.resize(rows.words_per_row());
          lane_words.resize(row_words.size());
        }
        for (; in_band != 0; in_band &= in_band - 1) {
          const auto bit =
              static_cast<std::size_t>(std::countr_zero(in_band));
          const std::size_t slot = first + bit;
          const std::uint64_t id = directory.ids[slot];
          rows.gather_row(slot, row_words.data());
          mismatch_words(row_words.data(), *passes[p].view,
                         lane_words.data());
          const double vml =
              row_silicon(*silicon, id).settle(lane_words, charge_.vdd);
          Rng decide_rng = pass_rngs[p].fork(id);
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
