// One-bank accelerator behaviour — load, capacity, search, accounting —
// through the monolithic search path: a 1-shard router.

#include "asmcap/sharded.h"

#include <gtest/gtest.h>

#include "align/edstar.h"
#include "asmcap/db_error.h"
#include "genome/edits.h"
#include "genome/reference.h"

namespace asmcap {
namespace {

AsmcapConfig small_config(bool ideal = true) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = 4;
  config.ideal_sensing = ideal;
  return config;
}

class AcceleratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(401);
    reference_ = generate_reference(64 * 20 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(20);
  }
  Sequence reference_;
  std::vector<Sequence> segments_;
};

TEST_F(AcceleratorTest, LoadAndCapacity) {
  ShardedAccelerator accel(small_config(), 1);
  accel.load_reference(segments_);
  EXPECT_EQ(accel.loaded_segments(), 20u);
  // 20 segments over 16-row arrays.
  EXPECT_EQ(accel.shard(0).arrays_in_use(), 2u);
  EXPECT_THROW(accel.load_reference(segments_), std::logic_error);
}

TEST_F(AcceleratorTest, CapacityOverflowThrows) {
  AsmcapConfig config = small_config();
  config.array_count = 1;  // 16 rows only
  ShardedAccelerator accel(config, 1);
  try {
    accel.load_reference(segments_);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::CapacityExceeded);
  }
}

TEST_F(AcceleratorTest, SearchBeforeLoadThrows) {
  ShardedAccelerator accel(small_config(), 1);
  EXPECT_THROW(accel.search(segments_[0], 2, StrategyMode::Baseline),
               std::logic_error);
}

TEST_F(AcceleratorTest, WrongReadWidthThrows) {
  ShardedAccelerator accel(small_config(), 1);
  accel.load_reference(segments_);
  Rng rng(402);
  EXPECT_THROW(accel.search(Sequence::random(32, rng), 2,
                            StrategyMode::Baseline),
               std::invalid_argument);
}

TEST_F(AcceleratorTest, ExactReadMatchesItsSegmentOnly) {
  ShardedAccelerator accel(small_config(), 1);
  accel.load_reference(segments_);
  const QueryResult result =
      accel.search(segments_[7], 0, StrategyMode::Baseline);
  ASSERT_EQ(result.decisions.size(), 20u);
  EXPECT_TRUE(result.decisions[7]);
  // Unrelated segments must not match at T = 0.
  std::size_t matches = 0;
  for (bool d : result.decisions) matches += d ? 1u : 0u;
  EXPECT_EQ(matches, 1u);
  ASSERT_EQ(result.matched_segments.size(), 1u);
  EXPECT_EQ(result.matched_segments[0], 7u);
}

TEST_F(AcceleratorTest, IdealDecisionsEqualEdStarThreshold) {
  ShardedAccelerator accel(small_config(/*ideal=*/true), 1);
  accel.load_reference(segments_);
  Rng rng(403);
  const EditedSequence edited =
      inject_edits(segments_[3], {0.03, 0.0, 0.0}, rng);
  Sequence read = edited.seq;
  while (read.size() < 64) read.push_back(Base::A);
  if (read.size() > 64) read = read.subseq(0, 64);
  for (std::size_t t : {std::size_t{0}, std::size_t{2}, std::size_t{6}}) {
    const QueryResult result = accel.search(read, t, StrategyMode::Baseline);
    for (std::size_t g = 0; g < segments_.size(); ++g)
      EXPECT_EQ(result.decisions[g], ed_star(segments_[g], read) <= t)
          << "g=" << g << " t=" << t;
  }
}

TEST_F(AcceleratorTest, LatencyAndEnergyAccounting) {
  ShardedAccelerator accel(small_config(), 1);
  accel.load_reference(segments_);
  accel.set_error_profile(ErrorRates::condition_a());
  const QueryResult baseline =
      accel.search(segments_[0], 1, StrategyMode::Baseline);
  EXPECT_NEAR(baseline.latency_seconds, 0.9e-9, 1e-12);
  EXPECT_GT(baseline.energy_joules, 0.0);
  // HDAC at T=1 in condition A adds the HD pass: 2 searches.
  const QueryResult with_hdac =
      accel.search(segments_[0], 1, StrategyMode::HdacOnly);
  EXPECT_TRUE(with_hdac.plan.hd_search);
  EXPECT_NEAR(with_hdac.latency_seconds, 1.8e-9, 1e-12);
  EXPECT_GT(with_hdac.energy_joules, baseline.energy_joules);
  // Ledger saw both queries.
  EXPECT_EQ(accel.totals().queries, 2u);
}

TEST_F(AcceleratorTest, TasrRotationsCostSearches) {
  ShardedAccelerator accel(small_config(), 1);
  accel.load_reference(segments_);
  accel.set_error_profile(ErrorRates::condition_b());
  // T_l for 64-base reads in condition B: ceil(2e-4/0.01*64) = 2.
  const QueryResult no_rot = accel.search(segments_[0], 1,
                                          StrategyMode::TasrOnly);
  EXPECT_FALSE(no_rot.plan.tasr_triggered);
  const QueryResult rot = accel.search(segments_[0], 3, StrategyMode::TasrOnly);
  EXPECT_TRUE(rot.plan.tasr_triggered);
  EXPECT_EQ(rot.plan.ed_star_searches, 5u);
  EXPECT_NEAR(rot.latency_seconds, 5 * 0.9e-9, 1e-12);
}

TEST_F(AcceleratorTest, TasrRecoversBurstDeletion) {
  ShardedAccelerator accel(small_config(), 1);
  accel.load_reference(segments_);
  accel.set_error_profile(ErrorRates::condition_b());
  Rng rng(405);
  // Burst-delete 2 bases near the front of segment 5's copy.
  EditedSequence edited =
      inject_indel_burst(segments_[5], EditKind::Deletion, 2, rng);
  while (edited.seq.size() < 64)
    edited.seq.push_back(base_from_code(
        static_cast<std::uint8_t>(rng.below(4))));
  const std::size_t threshold = 6;  // >= T_l = 2
  const std::size_t plain_star = ed_star(segments_[5], edited.seq);
  if (plain_star > threshold) {
    // Plain ED* misses it; TASR must recover it when a rotation fits.
    const QueryResult plain =
        accel.search(edited.seq, threshold, StrategyMode::Baseline);
    EXPECT_FALSE(plain.decisions[5]);
    const std::size_t rotated = ed_star_min_rotated(
        segments_[5], edited.seq, 2, RotateDir::Both);
    if (rotated <= threshold) {
      const QueryResult with_tasr =
          accel.search(edited.seq, threshold, StrategyMode::TasrOnly);
      EXPECT_TRUE(with_tasr.decisions[5]);
    }
  }
}

TEST_F(AcceleratorTest, NoisySensingStillMostlyCorrect) {
  ShardedAccelerator accel(small_config(/*ideal=*/false), 1);
  accel.load_reference(segments_);
  int correct = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const QueryResult result =
        accel.search(segments_[t % 20], 2, StrategyMode::Baseline);
    correct += result.decisions[t % 20] ? 1 : 0;
  }
  // Charge-domain noise is tiny: self-matches at T=2 virtually always hold.
  EXPECT_GE(correct, trials - 1);
}

TEST_F(AcceleratorTest, LoadCostAccounted) {
  ShardedAccelerator accel(small_config(), 1);
  EXPECT_EQ(accel.load_energy_joules(), 0.0);
  accel.load_reference(segments_);
  EXPECT_GT(accel.load_energy_joules(), 0.0);
  EXPECT_GT(accel.load_latency_seconds(), 0.0);
  // 20 segments of 64 bases at the default write cost.
  EXPECT_NEAR(accel.load_energy_joules(), 20.0 * 64.0 * 30e-15, 1e-18);
  // Latency set by the fullest array (16 rows), not the total.
  EXPECT_NEAR(accel.load_latency_seconds(), 16.0 * 2e-9, 1e-15);
}

TEST_F(AcceleratorTest, FullModeEqualsTasrScheduleUnderIdealSensing) {
  // With HDAC inactive (condition B) and TASR triggered, the Full-mode
  // decision must equal the OR over the ideal rotation schedule.
  ShardedAccelerator accel(small_config(/*ideal=*/true), 1);
  accel.load_reference(segments_);
  accel.set_error_profile(ErrorRates::condition_b());
  Rng rng(407);
  const Sequence read = Sequence::random(64, rng);
  const std::size_t threshold = 8;  // >= T_l = 2 for 64-base reads
  const QueryResult result = accel.search(read, threshold, StrategyMode::Full);
  ASSERT_TRUE(result.plan.tasr_triggered);
  ASSERT_FALSE(result.plan.hd_search);
  for (std::size_t g = 0; g < segments_.size(); ++g) {
    const std::size_t best =
        ed_star_min_rotated(segments_[g], read, 2, RotateDir::Both);
    EXPECT_EQ(result.decisions[g], best <= threshold) << "g=" << g;
  }
}

TEST_F(AcceleratorTest, DeterministicWithSameSeed) {
  AsmcapConfig config = small_config(/*ideal=*/false);
  ShardedAccelerator a(config, 1);
  ShardedAccelerator b(config, 1);
  a.load_reference(segments_);
  b.load_reference(segments_);
  Rng rng(406);
  const Sequence read = Sequence::random(64, rng);
  const QueryResult ra = a.search(read, 4, StrategyMode::Full);
  const QueryResult rb = b.search(read, 4, StrategyMode::Full);
  EXPECT_EQ(ra.decisions, rb.decisions);
  EXPECT_EQ(ra.energy_joules, rb.energy_joules);
}

}  // namespace
}  // namespace asmcap
