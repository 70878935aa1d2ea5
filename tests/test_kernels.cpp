#include "align/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "align/edstar.h"
#include "align/hamming.h"
#include "asmcap/edam.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "util/lane_flags.h"

namespace asmcap {
namespace {

// Tiers that can actually execute on this machine (compiled + CPU).
std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier tier : compiled_kernel_tiers())
    if (kernel_tier_available(tier)) tiers.push_back(tier);
  return tiers;
}

/// Restores the active tier on scope exit (tests flip it at will).
struct TierGuard {
  KernelTier saved = active_kernel_tier();
  ~TierGuard() { set_active_kernel_tier(saved); }
};

/// Independent cell-by-cell ED* reference (mirrors the hardware window
/// definition, deliberately not sharing code with the kernels).
std::size_t ed_star_reference(const Sequence& stored, const Sequence& read) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const Base q = stored[i];
    bool match = q == read[i];
    if (!match && i > 0) match = q == read[i - 1];
    if (!match && i + 1 < read.size()) match = q == read[i + 1];
    mismatches += match ? 0u : 1u;
  }
  return mismatches;
}

std::size_t hamming_reference(const Sequence& a, const Sequence& b) {
  std::size_t distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    distance += a[i] != b[i] ? 1u : 0u;
  return distance;
}

// ---- Tier discovery and selection ---------------------------------------

TEST(KernelDispatch, ScalarAlwaysCompiledAndAvailable) {
  const auto compiled = compiled_kernel_tiers();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), KernelTier::Scalar);
  EXPECT_TRUE(kernel_tier_available(KernelTier::Scalar));
  EXPECT_EQ(kernel_ops(KernelTier::Scalar).tier, KernelTier::Scalar);
}

TEST(KernelDispatch, ActiveTierIsAvailableAndOpsAgree) {
  const KernelTier tier = active_kernel_tier();
  EXPECT_TRUE(kernel_tier_available(tier));
  EXPECT_EQ(active_kernel_ops().tier, tier);
}

TEST(KernelDispatch, TierNames) {
  EXPECT_STREQ(to_string(KernelTier::Scalar), "scalar");
  EXPECT_STREQ(to_string(KernelTier::Avx2), "avx2");
  EXPECT_STREQ(to_string(KernelTier::Neon), "neon");
}

TEST(KernelDispatch, ResolveHonoursExplicitNames) {
  const KernelTier detected = detect_kernel_tier();
  // No override: the detected tier passes through.
  EXPECT_EQ(resolve_kernel_tier(nullptr, detected), detected);
  EXPECT_EQ(resolve_kernel_tier("", detected), detected);
  // Scalar is always selectable.
  EXPECT_EQ(resolve_kernel_tier("scalar", detected), KernelTier::Scalar);
  // Unknown names are a configuration error, not a silent fallback.
  EXPECT_THROW(resolve_kernel_tier("sse9", detected), std::invalid_argument);
  EXPECT_THROW(resolve_kernel_tier("AVX2", detected), std::invalid_argument);
  // SIMD names resolve when available and throw (not degrade) otherwise.
  for (const auto& [name, tier] :
       {std::pair<const char*, KernelTier>{"avx2", KernelTier::Avx2},
        std::pair<const char*, KernelTier>{"neon", KernelTier::Neon}}) {
    if (kernel_tier_available(tier)) {
      EXPECT_EQ(resolve_kernel_tier(name, detected), tier);
    } else {
      EXPECT_THROW(resolve_kernel_tier(name, detected), std::runtime_error);
    }
  }
}

TEST(KernelDispatch, EnvOverrideSelectsTier) {
  // Save and restore the process-wide override: the test binary may
  // itself be running under ASMCAP_KERNEL (the scalar-forced CI leg).
  const char* prior_raw = std::getenv("ASMCAP_KERNEL");
  const std::string prior = prior_raw == nullptr ? "" : prior_raw;
  ASSERT_EQ(setenv("ASMCAP_KERNEL", "scalar", 1), 0);
  EXPECT_EQ(resolve_kernel_tier_from_env(), KernelTier::Scalar);
  ASSERT_EQ(setenv("ASMCAP_KERNEL", "bogus", 1), 0);
  EXPECT_THROW(resolve_kernel_tier_from_env(), std::invalid_argument);
  ASSERT_EQ(unsetenv("ASMCAP_KERNEL"), 0);
  EXPECT_EQ(resolve_kernel_tier_from_env(), detect_kernel_tier());
  if (prior_raw != nullptr) {
    ASSERT_EQ(setenv("ASMCAP_KERNEL", prior.c_str(), 1), 0);
  }
}

TEST(KernelDispatch, SetActiveTierRejectsUnavailableTiers) {
  TierGuard guard;
  for (const KernelTier tier : {KernelTier::Avx2, KernelTier::Neon}) {
    if (kernel_tier_available(tier)) {
      set_active_kernel_tier(tier);
      EXPECT_EQ(active_kernel_tier(), tier);
    } else {
      EXPECT_THROW(set_active_kernel_tier(tier), std::runtime_error);
    }
  }
}

// ---- Cross-tier parity ---------------------------------------------------
// The bit-identity contract: every tier's block counts over the bit-sliced
// store equal the cell-by-cell references, at widths on both sides of the
// 16-column carry-save groups and the 32-base words, over a store that
// crosses the 256-row block boundary into a partial last block.

/// A stored row that mismatches every cell of `read` under both metrics:
/// at each cell, a code that is none of R[i-1], R[i] and R[i+1].
Sequence all_mismatch_row(const Sequence& read) {
  Sequence row(read.size());
  for (std::size_t i = 0; i < read.size(); ++i) {
    std::uint8_t code = 0;
    const auto taken = [&](std::uint8_t c) {
      return c == code_of(read[i]) ||
             (i > 0 && c == code_of(read[i - 1])) ||
             (i + 1 < read.size() && c == code_of(read[i + 1]));
    };
    while (taken(code)) ++code;
    row.set(i, base_from_code(code));
  }
  return row;
}

TEST(KernelParity, EveryTierCountsMatchCellReferencesAcrossWidths) {
  constexpr std::uint16_t kUnwritten = 0xFFFF;
  constexpr std::size_t kRows = 300;
  Rng rng(0x51D0);
  for (const std::size_t n :
       {0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255,
        256, 257}) {
    const Sequence read = Sequence::random(n, rng);
    // The all-match and all-mismatch rows, near copies of the read (0-6
    // substitutions, so counts span low values), and random rows.
    std::vector<Sequence> rows = {read, all_mismatch_row(read)};
    while (rows.size() < kRows) {
      if (rows.size() % 2 == 0 || n == 0) {
        rows.push_back(Sequence::random(n, rng));
        continue;
      }
      Sequence near = read;
      for (std::size_t k = 0; k < rows.size() % 7; ++k) {
        const std::size_t i = rng.below(n);
        near.set(i, base_from_code(
                        static_cast<std::uint8_t>(code_of(near[i]) + 1)));
      }
      rows.push_back(near);
    }
    if (n == 256) {
      ASSERT_EQ(ed_star_reference(rows[1], read), 256u);
      ASSERT_EQ(hamming_reference(rows[1], read), 256u);
    }
    const SlicedRowStore store(rows, n);
    ASSERT_EQ(store.blocks(), 2u);
    const PackedReadView ed_star_view(read);
    const PackedReadView hamming_view(read, /*neighbours=*/false);
    // Bounds below, inside and above the counts (65536 is past every
    // 16-bit count; 0 admits none).
    const std::vector<std::size_t> bounds = {n / 3 + 1, 0, n + 1, 65536};

    for (const KernelTier tier : available_tiers()) {
      const KernelOps& ops = kernel_ops(tier);
      for (std::size_t b = 0; b < store.blocks(); ++b) {
        for (const bool is_ed_star : {true, false}) {
          for (const std::size_t bound : bounds) {
            BlockCounts got;
            std::fill(std::begin(got.counts), std::end(got.counts),
                      kUnwritten);
            std::fill(std::begin(got.below), std::end(got.below),
                      ~std::uint64_t{0});
            ops.count_block(store, b,
                            is_ed_star ? ed_star_view : hamming_view, bound,
                            got);
            for (std::size_t r = 0; r < SlicedRowStore::kBlockRows; ++r) {
              const std::size_t slot = b * SlicedRowStore::kBlockRows + r;
              // Padding rows past the last slot count as all-'A' rows.
              const Sequence row = slot < kRows ? rows[slot] : Sequence(n);
              const std::size_t want = is_ed_star
                                           ? ed_star_reference(row, read)
                                           : hamming_reference(row, read);
              EXPECT_EQ(got.counts[r], want)
                  << "tier=" << to_string(tier) << " n=" << n
                  << " slot=" << slot << " ed_star=" << is_ed_star;
              EXPECT_EQ((got.below[r / 64] >> (r % 64)) & 1, want < bound)
                  << "tier=" << to_string(tier) << " n=" << n
                  << " slot=" << slot << " bound=" << bound;
            }
          }
        }
      }
    }
  }
}

// The pruning probe on every tier against a cell-by-cell oracle: for each
// width, an ED* and a Hamming view, live masks that keep all rows, none,
// a random half, or one row on a 64-row group or 256-row block edge, and
// column windows across the 16-column and 32-column edges. The store's
// last block is partial, and the live words set every padding bit, so a
// padding row that counted would show; an all-'A' read makes the all-'A'
// padding rows match every window.
TEST(KernelParity, EveryTierWindowAliveMatchesCellReference) {
  constexpr std::size_t kRows = 300;
  constexpr std::size_t kLiveWords = 8;  // two blocks, padding bits set
  Rng rng(0x51D4);
  for (const std::size_t n :
       {0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255,
        256, 257}) {
    for (const bool all_a : {false, true}) {
      const Sequence read = all_a ? Sequence(n) : Sequence::random(n, rng);
      // Near copies of the read, in which some windows survive, and
      // random rows, in which few do; all-mismatch rows on the all-'A'
      // read, so that only a padding row could match.
      std::vector<Sequence> rows;
      while (rows.size() < kRows) {
        if (all_a) {
          rows.push_back(all_mismatch_row(read));
        } else if (rows.size() % 2 == 0 || n == 0) {
          rows.push_back(Sequence::random(n, rng));
        } else {
          Sequence near = read;
          for (std::size_t k = 0; k < rows.size() % 5; ++k) {
            const std::size_t i = rng.below(n);
            near.set(i, base_from_code(static_cast<std::uint8_t>(
                            code_of(near[i]) + 1)));
          }
          rows.push_back(near);
        }
      }
      const SlicedRowStore store(rows, n);

      std::vector<std::vector<std::uint64_t>> masks;
      masks.emplace_back(kLiveWords, ~std::uint64_t{0});
      masks.emplace_back(kLiveWords, 0);
      std::vector<std::uint64_t> half(kLiveWords);
      for (std::uint64_t& word : half) word = rng.next();
      masks.push_back(half);
      for (const std::size_t slot : {0, 63, 64, 255, 256, 299}) {
        std::vector<std::uint64_t> one(kLiveWords, 0);
        one[slot / 64] = std::uint64_t{1} << (slot % 64);
        masks.push_back(one);
      }

      std::vector<std::pair<std::size_t, std::size_t>> windows = {
          {0, n}, {0, n / 2}, {n / 2, n}, {n / 3, 2 * n / 3}};
      for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{
                                       15, 17},
                                   {31, 33}, {0, 1}, {30, 66}, {60, 130}})
        if (hi <= n) windows.emplace_back(lo, hi);
      if (n > 0) windows.emplace_back(n - 1, n);

      for (const bool ed_star : {true, false}) {
        const PackedReadView view(read, ed_star);
        // mismatches[r][i]: row r's mismatched cells among the first i.
        std::vector<std::vector<std::size_t>> mismatches(kRows);
        for (std::size_t r = 0; r < kRows; ++r) {
          mismatches[r].assign(n + 1, 0);
          for (std::size_t i = 0; i < n; ++i) {
            const Base q = rows[r][i];
            bool match = q == read[i];
            if (ed_star && !match && i > 0) match = q == read[i - 1];
            if (ed_star && !match && i + 1 < n) match = q == read[i + 1];
            mismatches[r][i + 1] = mismatches[r][i] + (match ? 0 : 1);
          }
        }
        for (const std::vector<std::uint64_t>& live : masks) {
          for (const auto& [lo, hi] : windows) {
            bool want = false;
            for (std::size_t r = 0; r < kRows; ++r)
              want = want || (((live[r / 64] >> (r % 64)) & 1) != 0 &&
                              mismatches[r][hi] == mismatches[r][lo]);
            for (const KernelTier tier : available_tiers())
              EXPECT_EQ(kernel_ops(tier).window_alive(store, view,
                                                      live.data(), lo, hi),
                        want)
                  << "tier=" << to_string(tier) << " n=" << n
                  << " all_a=" << all_a << " ed_star=" << ed_star
                  << " window=[" << lo << ", " << hi << ")";
          }
        }
      }
    }
  }
}

// Group writes: runs that start mid-group, straddle 64-row groups and
// 256-row blocks, overwrite earlier (recycled) slots, and grow the store
// must all gather back, by group and by row, as exactly the rows written.
TEST(SlicedRowStore, GroupWritesGatherBackAcrossGroupsAndBlocks) {
  Rng rng(0x51D3);
  for (const std::size_t n : {1, 33, 64, 100, 256}) {
    SlicedRowStore store(n);
    std::vector<Sequence> model;  // unwritten slots read as all-'A' rows
    const std::pair<std::size_t, std::size_t> runs[] = {
        {0, 10},    // fresh, mid-group end
        {70, 5},    // grows past a gap, starts mid-group
        {60, 10},   // straddles the first group boundary, overwrites
        {250, 20},  // straddles the first block boundary and grows
        {3, 2},     // recycles two slots inside a group
        {128, 64},  // exactly one whole group
        {300, 1},   // grows by one row into a partial group
    };
    for (const auto& [first, count] : runs) {
      std::vector<Sequence> rows;
      rows.reserve(count);
      for (std::size_t i = 0; i < count; ++i)
        rows.push_back(Sequence::random(n, rng));
      store.write_rows(first, rows);
      if (model.size() < first + count)
        model.resize(first + count, Sequence(n));
      std::copy(rows.begin(), rows.end(),
                model.begin() + static_cast<std::ptrdiff_t>(first));

      ASSERT_EQ(store.rows(), model.size());
      const std::size_t words = store.words_per_row();
      std::vector<std::uint64_t> group(SlicedRowStore::kGroupRows * words);
      std::vector<std::uint64_t> row(words);
      for (std::size_t slot = 0;
           slot < store.blocks() * SlicedRowStore::kBlockRows; ++slot) {
        const std::size_t r = slot % SlicedRowStore::kGroupRows;
        if (r == 0)
          store.gather_group(slot / SlicedRowStore::kGroupRows, group.data());
        const Sequence expected =
            slot < model.size() ? model[slot] : Sequence(n);
        const std::vector<std::uint64_t> packed = expected.packed_words();
        EXPECT_TRUE(std::equal(packed.begin(), packed.end(),
                               group.begin() + static_cast<std::ptrdiff_t>(
                                                   r * words)))
            << "n=" << n << " slot=" << slot << " after run " << first;
        store.gather_row(slot, row.data());
        EXPECT_EQ(row, packed) << "n=" << n << " slot=" << slot;
      }
    }
    // The bulk constructor stores what the runs stored.
    const SlicedRowStore bulk(model, n);
    ASSERT_EQ(bulk.rows(), store.rows());
    for (std::size_t b = 0; b < store.blocks(); ++b)
      EXPECT_TRUE(std::equal(
          store.block(b),
          store.block(b) + n * SlicedRowStore::kColumnWords, bulk.block(b)));
    // A width mismatch is rejected before anything changes.
    const std::vector<Sequence> bad = {Sequence(n), Sequence(n + 1)};
    EXPECT_THROW(store.write_rows(0, bad), std::invalid_argument);
    EXPECT_EQ(store.rows(), model.size());
    std::vector<std::uint64_t> first_row(store.words_per_row());
    store.gather_row(0, first_row.data());
    EXPECT_EQ(first_row, model[0].packed_words());
  }
  EXPECT_THROW(SlicedRowStore(65536), std::invalid_argument);
}

TEST(KernelParity, SingleRowWrappersMatchReference) {
  Rng rng(0x51D1);
  for (const std::size_t n : {std::size_t{33}, std::size_t{256}}) {
    const Sequence a = Sequence::random(n, rng);
    const Sequence b = Sequence::random(n, rng);
    const std::size_t star = ed_star_reference(a, b);
    const std::size_t ham = hamming_reference(a, b);
    EXPECT_EQ(ed_star_packed(a.packed_words(), b.packed_words(), n), star);
    EXPECT_EQ(hamming_packed(a.packed_words(), b.packed_words(), n), ham);
    EXPECT_EQ(ed_star(a, b), star);
  }
}

TEST(KernelParity, ShortReadWordsAreRejected) {
  // A view reads ceil(n/32) words: fewer is an error, never a read past
  // the end of the vector.
  EXPECT_THROW(PackedReadView(std::vector<std::uint64_t>{0, 0}, 65),
               std::invalid_argument);
  EXPECT_THROW(PackedReadView(std::vector<std::uint64_t>{}, 1, false),
               std::invalid_argument);
  EXPECT_NO_THROW(PackedReadView(std::vector<std::uint64_t>{0, 0, 0}, 65));
}

TEST(KernelParity, MismatchWordsAgreeWithCountsAndMasks) {
  Rng rng(0x51D2);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{31}, std::size_t{64}, std::size_t{65},
        std::size_t{96}, std::size_t{161}, std::size_t{256}}) {
    for (int trial = 0; trial < 10; ++trial) {
      const Sequence stored = Sequence::random(n, rng);
      const Sequence read = Sequence::random(n, rng);
      const PackedReadView view(read);
      const std::vector<std::uint64_t> packed = stored.packed_words();
      std::vector<std::uint64_t> flags(view.words);

      ed_star_mismatch_words(packed.data(), view, flags.data());
      EXPECT_EQ(count_lane_flags(flags), ed_star_reference(stored, read));

      hamming_mismatch_words(packed.data(), view, flags.data());
      EXPECT_EQ(count_lane_flags(flags), hamming_reference(stored, read));
      // Lane-word layout: bit 2 * (i % 32) of word i / 32 is cell i's
      // output.
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ((flags[i / 32] >> (2 * (i % 32))) & 1,
                  stored[i] != read[i] ? 1u : 0u);
    }
  }
}

// ---- Engine-level tier invariance ---------------------------------------
// Identical decisions, energy and latency under every ASMCAP_KERNEL
// setting, on both accelerators, sensing ideally and with noise. Random
// rows against random reads at T = 20 put many counts next to the
// threshold, so the noisy passes sense in-band rows (gathered from the
// store) on every tier.

TEST(KernelTierEquivalence, AsmcapDecisionsIdenticalAcrossTiers) {
  TierGuard guard;
  for (const bool ideal : {true, false}) {
    AsmcapConfig config;
    config.array_rows = 64;
    config.array_cols = 64;
    config.array_count = 2;
    config.ideal_sensing = ideal;

    Rng rng(0x51D3);
    std::vector<Sequence> segments;
    for (int i = 0; i < 96; ++i)
      segments.push_back(Sequence::random(config.array_cols, rng));
    std::vector<Sequence> reads;
    for (int i = 0; i < 24; ++i)
      reads.push_back(Sequence::random(config.array_cols, rng));

    std::vector<std::vector<QueryResult>> per_tier;
    for (const KernelTier tier : available_tiers()) {
      set_active_kernel_tier(tier);
      // Fresh 1-shard router per tier: same seed, same batch epoch, so the
      // forked per-read streams are identical and only the kernels differ.
      // On the noisy config the Circuit kind senses noise.
      ShardedAccelerator accel(config, 1);
      accel.set_backend(ideal ? BackendKind::Functional
                              : BackendKind::Circuit);
      accel.load_reference(segments);
      accel.set_error_profile(ErrorRates::condition_a());
      per_tier.push_back(
          accel.search_batch(reads, 20, StrategyMode::Full, 2));
    }
    ASSERT_FALSE(per_tier.empty());
    for (std::size_t t = 1; t < per_tier.size(); ++t) {
      for (std::size_t i = 0; i < reads.size(); ++i) {
        const QueryResult& got = per_tier[t][i];
        const QueryResult& want = per_tier[0][i];
        EXPECT_EQ(got.decisions, want.decisions)
            << "tier " << to_string(available_tiers()[t]) << " read " << i
            << " ideal " << ideal;
        EXPECT_EQ(got.matched_segments, want.matched_segments);
        EXPECT_EQ(got.energy_joules, want.energy_joules) << "read " << i;
        EXPECT_EQ(got.latency_seconds, want.latency_seconds) << "read " << i;
      }
    }
  }
}

TEST(KernelTierEquivalence, EdamDecisionsIdenticalAcrossTiers) {
  TierGuard guard;
  for (const bool ideal : {true, false}) {
    EdamConfig config;
    config.array_rows = 64;
    config.array_cols = 64;
    config.array_count = 2;
    config.ideal_sensing = ideal;

    Rng rng(0x51D4);
    std::vector<Sequence> segments;
    for (int i = 0; i < 96; ++i)
      segments.push_back(Sequence::random(config.array_cols, rng));
    std::vector<Sequence> reads;
    for (int i = 0; i < 24; ++i)
      reads.push_back(Sequence::random(config.array_cols, rng));

    std::vector<std::vector<EdamQueryResult>> per_tier;
    for (const KernelTier tier : available_tiers()) {
      set_active_kernel_tier(tier);
      EdamAccelerator accel(config);
      accel.load_reference(segments);
      per_tier.push_back(accel.search_batch(reads, 20, 2));
    }
    ASSERT_FALSE(per_tier.empty());
    for (std::size_t t = 1; t < per_tier.size(); ++t) {
      for (std::size_t i = 0; i < reads.size(); ++i) {
        const EdamQueryResult& got = per_tier[t][i];
        const EdamQueryResult& want = per_tier[0][i];
        EXPECT_EQ(got.decisions, want.decisions)
            << "tier " << to_string(available_tiers()[t]) << " read " << i
            << " ideal " << ideal;
        EXPECT_EQ(got.energy_joules, want.energy_joules) << "read " << i;
        EXPECT_EQ(got.latency_seconds, want.latency_seconds) << "read " << i;
      }
    }
  }
}

}  // namespace
}  // namespace asmcap
