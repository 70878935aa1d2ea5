#include "align/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
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
// The bit-identity contract: every tier returns exactly the scalar counts
// on random and boundary-shaped inputs (n % 32 in {0, 1, 31}, empty,
// single-word, sub-vector-width word counts that exercise the SIMD tails).

TEST(KernelParity, AllTiersMatchScalarReferenceOnBoundaryLengths) {
  Rng rng(0x51D0);
  const std::size_t lengths[] = {0,  1,  2,   31,  32,  33,  63,  64, 65,
                                 95, 96, 97,  127, 128, 129, 159, 160,
                                 191, 192, 255, 256, 257};
  for (const std::size_t n : lengths) {
    for (int trial = 0; trial < 8; ++trial) {
      // A block of related rows: random, identical, and near-identical.
      std::vector<Sequence> rows;
      const Sequence read = Sequence::random(n, rng);
      rows.push_back(read);  // all-match row
      for (int r = 0; r < 3; ++r) rows.push_back(Sequence::random(n, rng));
      if (n > 0) {
        Sequence almost = read;  // single substitution at a random cell
        const std::size_t i = rng.below(n);
        almost.set(i, base_from_code(
                          static_cast<std::uint8_t>(code_of(almost[i]) + 1)));
        rows.push_back(almost);
      }
      const PackedRowMatrix matrix(rows, n);
      const PackedReadView view(read);
      ASSERT_EQ(view.words, matrix.words_per_row());

      for (const KernelTier tier : available_tiers()) {
        const KernelOps& ops = kernel_ops(tier);
        std::vector<std::uint32_t> star(rows.size()), ham(rows.size());
        ops.ed_star_block(matrix.data(), rows.size(), view, star.data());
        ops.hamming_block(matrix.data(), rows.size(), view, ham.data());
        for (std::size_t g = 0; g < rows.size(); ++g) {
          EXPECT_EQ(star[g], ed_star_reference(rows[g], read))
              << "tier=" << to_string(tier) << " n=" << n << " row=" << g;
          EXPECT_EQ(ham[g], hamming_reference(rows[g], read))
              << "tier=" << to_string(tier) << " n=" << n << " row=" << g;
        }
      }
    }
  }
}

// A tier may sweep rows in internal blocks and columns in multi-word
// chunks, but it must write every count for any row count and width,
// width 0 included. Row counts straddle 64-row blocks; widths straddle
// 128-cell chunks and their scalar tails. Outputs start as a sentinel, so
// an unwritten count fails as surely as a wrong one.
TEST(KernelParity, BlockKernelsWriteEveryCountAcrossBlockAndChunkBoundaries) {
  constexpr std::uint32_t kUnwritten = 0xFFFFFFFFu;
  Rng rng(0x51D5);
  for (const std::size_t n : {0, 33, 96, 127, 128, 129, 160, 256}) {
    const Sequence read = Sequence::random(n, rng);
    const PackedReadView view(read);
    const PackedReadView hamming_view(read, /*neighbours=*/false);
    for (const std::size_t n_rows : {1, 63, 64, 65, 130}) {
      // Odd rows are near-copies of the read (0-6 substitutions), so the
      // counts span low values as well as the random rows' high ones.
      std::vector<Sequence> rows;
      for (std::size_t g = 0; g < n_rows; ++g) {
        if (g % 2 == 0 || n == 0) {
          rows.push_back(Sequence::random(n, rng));
          continue;
        }
        Sequence near = read;
        for (std::size_t k = 0; k < g % 7; ++k) {
          const std::size_t i = rng.below(n);
          near.set(i, base_from_code(
                          static_cast<std::uint8_t>(code_of(near[i]) + 1)));
        }
        rows.push_back(near);
      }
      const PackedRowMatrix matrix(rows, n);

      for (const KernelTier tier : available_tiers()) {
        const KernelOps& ops = kernel_ops(tier);
        std::vector<std::uint32_t> star(n_rows, kUnwritten);
        std::vector<std::uint32_t> ham(n_rows, kUnwritten);
        ops.ed_star_block(matrix.data(), n_rows, view, star.data());
        ops.hamming_block(matrix.data(), n_rows, hamming_view, ham.data());
        for (std::size_t g = 0; g < n_rows; ++g) {
          EXPECT_EQ(star[g], ed_star_reference(rows[g], read))
              << "tier=" << to_string(tier) << " n=" << n
              << " rows=" << n_rows << " row=" << g;
          EXPECT_EQ(ham[g], hamming_reference(rows[g], read))
              << "tier=" << to_string(tier) << " n=" << n
              << " rows=" << n_rows << " row=" << g;
        }
      }
    }
  }
}

TEST(PackedRowMatrix, SetRowGrowsOverwritesAndMatchesBulkPacking) {
  Rng rng(0x51D3);
  const std::size_t n = 70;
  const Sequence a = Sequence::random(n, rng);
  const Sequence b = Sequence::random(n, rng);
  const Sequence c = Sequence::random(n, rng);
  PackedRowMatrix matrix(n);
  matrix.set_row(2, a);  // Rows 0 and 1 appear as zero (all-'A') rows.
  ASSERT_EQ(matrix.rows(), 3u);
  EXPECT_EQ(Sequence::from_packed_words(matrix.row(0), n), Sequence(n));
  EXPECT_EQ(Sequence::from_packed_words(matrix.row(2), n), a);
  matrix.set_row(0, b);
  matrix.set_row(2, c);
  const PackedRowMatrix bulk({b, Sequence(n), c}, n);
  ASSERT_EQ(matrix.rows(), bulk.rows());
  EXPECT_TRUE(std::equal(matrix.data(),
                         matrix.data() + 3 * matrix.words_per_row(),
                         bulk.data()));
  EXPECT_THROW(matrix.set_row(0, Sequence(n - 1)), std::invalid_argument);
}

TEST(KernelParity, SingleRowWrappersDispatchEveryTier) {
  TierGuard guard;
  Rng rng(0x51D1);
  for (const std::size_t n : {std::size_t{33}, std::size_t{256}}) {
    const Sequence a = Sequence::random(n, rng);
    const Sequence b = Sequence::random(n, rng);
    const std::size_t star = ed_star_reference(a, b);
    const std::size_t ham = hamming_reference(a, b);
    for (const KernelTier tier : available_tiers()) {
      set_active_kernel_tier(tier);
      EXPECT_EQ(ed_star_packed(a.packed_words(), b.packed_words(), n), star)
          << to_string(tier);
      EXPECT_EQ(hamming_packed(a.packed_words(), b.packed_words(), n), ham)
          << to_string(tier);
      EXPECT_EQ(ed_star(a, b), star);  // scalar reference path, any tier
    }
  }
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
// bench_batch-style digests: identical decisions under every
// ASMCAP_KERNEL setting, on both accelerators' functional paths.

TEST(KernelTierEquivalence, AsmcapDecisionsIdenticalAcrossTiers) {
  TierGuard guard;
  AsmcapConfig config;
  config.array_rows = 64;
  config.array_cols = 64;
  config.array_count = 2;
  config.ideal_sensing = true;

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
    ShardedAccelerator accel(config, 1);
    accel.set_backend(BackendKind::Functional);
    accel.load_reference(segments);
    accel.set_error_profile(ErrorRates::condition_a());
    per_tier.push_back(
        accel.search_batch(reads, 20, StrategyMode::Full, 2));
  }
  ASSERT_FALSE(per_tier.empty());
  for (std::size_t t = 1; t < per_tier.size(); ++t) {
    for (std::size_t i = 0; i < reads.size(); ++i) {
      EXPECT_EQ(per_tier[t][i].decisions, per_tier[0][i].decisions)
          << "tier " << to_string(available_tiers()[t]) << " read " << i;
      EXPECT_EQ(per_tier[t][i].matched_segments,
                per_tier[0][i].matched_segments);
    }
  }
}

TEST(KernelTierEquivalence, EdamDecisionsIdenticalAcrossTiers) {
  TierGuard guard;
  EdamConfig config;
  config.array_rows = 64;
  config.array_cols = 64;
  config.array_count = 2;
  config.ideal_sensing = true;

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
  for (std::size_t t = 1; t < per_tier.size(); ++t)
    for (std::size_t i = 0; i < reads.size(); ++i)
      EXPECT_EQ(per_tier[t][i].decisions, per_tier[0][i].decisions)
          << "tier " << to_string(available_tiers()[t]) << " read " << i;
}

}  // namespace
}  // namespace asmcap
