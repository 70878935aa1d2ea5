#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "eval/report.h"

namespace asmcap {
namespace {

/// Small, fast dataset configurations used for integration testing. The
/// benchmark binaries run the paper-sized versions.
Dataset small_dataset(bool condition_a, Rng& rng) {
  DatasetConfig config = condition_a ? condition_a_config(48, 96)
                                     : condition_b_config(48, 96);
  return build_dataset(config, rng);
}

TEST(Table1, RatiosMatchPaper) {
  const auto rows = run_table1(ProcessParams{});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_NEAR(rows[0].ratio, 1.4, 0.1);   // cell area
  EXPECT_NEAR(rows[1].ratio, 2.67, 0.1);  // search time
  EXPECT_NEAR(rows[2].ratio, 8.5, 1.5);   // power per cell
  const Table table = table1_table(rows);
  EXPECT_EQ(table.rows(), 3u);
}

TEST(Breakdown, MatchesPaperSection5B) {
  const BreakdownResult breakdown = run_breakdown(ProcessParams{}, 256, 256);
  EXPECT_NEAR(breakdown.area_total, 1.58e-6, 0.03e-6);
  EXPECT_GT(breakdown.area_cells_fraction, 0.99);
  EXPECT_NEAR(breakdown.power_total, 7.67e-3, 0.4e-3);
  EXPECT_NEAR(breakdown.power_cells_fraction, 0.75, 0.03);
  EXPECT_NEAR(breakdown.power_sr_fraction, 0.19, 0.03);
  EXPECT_NEAR(breakdown.power_sa_fraction, 0.06, 0.02);
  EXPECT_EQ(breakdown_table(breakdown).rows(), 6u);
}

TEST(States, MatchesPaperSection5D) {
  const StatesResult states = run_states(ProcessParams{});
  EXPECT_EQ(states.edam_states, 44u);
  EXPECT_EQ(states.asmcap_states, 566u);
  EXPECT_EQ(states_table(states).rows(), 2u);
}

class Fig7Test : public ::testing::Test {
 protected:
  Fig7Config small_config() const {
    Fig7Config config;
    config.asmcap.array_rows = 48;
    config.asmcap.array_cols = 256;
    return config;
  }
};

TEST_F(Fig7Test, ConditionAShape) {
  Rng rng(701);
  const Dataset dataset = small_dataset(/*condition_a=*/true, rng);
  const Fig7Runner runner(small_config());
  const Fig7Series series =
      runner.run(dataset, {1, 2, 3, 4, 5, 6, 7, 8}, rng);
  ASSERT_EQ(series.points.size(), 8u);

  // ASMCap w/o strategies must beat EDAM on average (charge-domain sensing).
  EXPECT_GE(series.mean(&Fig7Point::asmcap_base),
            series.mean(&Fig7Point::edam));
  // HDAC must help in the substitution-dominant condition.
  EXPECT_GT(series.mean(&Fig7Point::asmcap_hdac),
            series.mean(&Fig7Point::asmcap_base));
  // Full = HDAC behaviour here (TASR never triggers below T_l = 52).
  EXPECT_GT(series.mean(&Fig7Point::asmcap_full),
            series.mean(&Fig7Point::asmcap_base));
  // Everything beats the exact-matching Kraken-like baseline.
  EXPECT_GT(series.mean(&Fig7Point::asmcap_full),
            series.mean(&Fig7Point::kraken));
}

TEST_F(Fig7Test, ConditionAHdacHelpsMostAtSmallT) {
  Rng rng(703);
  const Dataset dataset = small_dataset(true, rng);
  const Fig7Runner runner(small_config());
  const Fig7Series series = runner.run(dataset, {1, 8}, rng);
  const double gain_small =
      series.points[0].asmcap_full - series.points[0].asmcap_base;
  const double gain_large =
      series.points[1].asmcap_full - series.points[1].asmcap_base;
  EXPECT_GT(gain_small, gain_large - 0.02);
}

TEST_F(Fig7Test, ConditionBShape) {
  Rng rng(705);
  const Dataset dataset = small_dataset(/*condition_a=*/false, rng);
  const Fig7Runner runner(small_config());
  const Fig7Series series =
      runner.run(dataset, {2, 4, 6, 8, 10, 12, 14, 16}, rng);
  // TASR must help in the indel-dominant condition.
  EXPECT_GT(series.mean(&Fig7Point::asmcap_tasr),
            series.mean(&Fig7Point::asmcap_base));
  EXPECT_GE(series.mean(&Fig7Point::asmcap_base),
            series.mean(&Fig7Point::edam) - 0.01);
}

TEST_F(Fig7Test, ConfusionTotalsEqualPairCount) {
  Rng rng(707);
  const Dataset dataset = small_dataset(true, rng);
  const Fig7Runner runner(small_config());
  const Fig7Series series = runner.run(dataset, {4}, rng);
  const std::size_t pairs = dataset.pair_count();
  EXPECT_EQ(series.points[0].cm_edam.total(), pairs);
  EXPECT_EQ(series.points[0].cm_base.total(), pairs);
  EXPECT_EQ(series.points[0].cm_full.total(), pairs);
}

TEST_F(Fig7Test, IdealSensingIsUpperBoundForBaseline) {
  Rng rng(709);
  const Dataset dataset = small_dataset(true, rng);
  Fig7Config noisy = small_config();
  Fig7Config ideal = small_config();
  ideal.asmcap.ideal_sensing = true;
  const Fig7Series noisy_series =
      Fig7Runner(noisy).run(dataset, {1, 2, 4}, rng);
  Rng rng2(709);
  const Fig7Series ideal_series =
      Fig7Runner(ideal).run(dataset, {1, 2, 4}, rng2);
  // EDAM improves a lot under ideal sensing; ASMCap barely changes.
  EXPECT_GE(ideal_series.mean(&Fig7Point::edam) + 1e-9,
            noisy_series.mean(&Fig7Point::edam));
  EXPECT_NEAR(ideal_series.mean(&Fig7Point::asmcap_base),
              noisy_series.mean(&Fig7Point::asmcap_base), 0.05);
}

TEST_F(Fig7Test, ReportTablesRender) {
  Rng rng(711);
  const Dataset dataset = small_dataset(true, rng);
  const Fig7Runner runner(small_config());
  const Fig7Series series = runner.run(dataset, {1, 2}, rng);
  EXPECT_EQ(fig7_table(series).rows(), 2u);
  EXPECT_EQ(fig7_normalized_table(series).rows(), 2u);
}

TEST(Fig7Runner, EmptyThresholdsThrow) {
  Rng rng(713);
  const Dataset dataset = small_dataset(true, rng);
  EXPECT_THROW(Fig7Runner().run(dataset, {}, rng), std::invalid_argument);
}

TEST_F(Fig7Test, EdamSrFlipLeavesAsmcapArmsBitIdentical) {
  // Regression: the replay used to thread ONE sequential noise stream
  // through all contender arms, so enabling EDAM's SR shifted the draws —
  // and the accuracy — of the ASMCap arms. Noise is now forked per
  // (arm, query, row): flipping edam_sr_enabled must leave every asmcap_*
  // F1 (and the kraken baseline) bit-identical.
  Rng rng(721);
  const Dataset dataset = small_dataset(/*condition_a=*/true, rng);
  Fig7Config without_sr = small_config();
  Fig7Config with_sr = small_config();
  with_sr.edam_sr_enabled = true;
  Rng rng_a(722);
  Rng rng_b(722);
  const Fig7Series a =
      Fig7Runner(without_sr).run(dataset, {1, 2, 4, 8}, rng_a);
  const Fig7Series b = Fig7Runner(with_sr).run(dataset, {1, 2, 4, 8}, rng_b);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t t = 0; t < a.points.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.points[t].asmcap_base, b.points[t].asmcap_base);
    EXPECT_DOUBLE_EQ(a.points[t].asmcap_hdac, b.points[t].asmcap_hdac);
    EXPECT_DOUBLE_EQ(a.points[t].asmcap_tasr, b.points[t].asmcap_tasr);
    EXPECT_DOUBLE_EQ(a.points[t].asmcap_full, b.points[t].asmcap_full);
    EXPECT_DOUBLE_EQ(a.points[t].kraken, b.points[t].kraken);
  }
}

TEST(ReadLength, SaltDomainsDisjointForConsecutiveLengths) {
  // Regression: the sweep forked rng.fork(L) for length L's dataset and
  // rng.fork(L + 1) for its run, so length L's run stream collided with
  // length L+1's dataset stream. The salted domains must never collide.
  std::set<std::uint64_t> salts;
  for (std::size_t length = 64; length <= 1025; ++length) {
    salts.insert(readlength_dataset_salt(length));
    salts.insert(readlength_run_salt(length));
  }
  EXPECT_EQ(salts.size(), 2u * (1025u - 64u + 1u));
  // The historical collision, spelled out: L's run vs (L+1)'s dataset.
  Rng rng(723);
  for (const std::size_t length : {64u, 128u, 256u, 512u, 1024u}) {
    EXPECT_NE(readlength_run_salt(length),
              readlength_dataset_salt(length + 1));
    Rng run_stream = rng.fork(readlength_run_salt(length));
    Rng next_dataset_stream = rng.fork(readlength_dataset_salt(length + 1));
    EXPECT_NE(run_stream.next(), next_dataset_stream.next());
  }
}

TEST(ShardedComparison, IncludesEdamContender) {
  Rng rng(725);
  DatasetConfig dataset_config = condition_a_config(32, 24);
  dataset_config.segment_length = 64;
  const Dataset dataset = build_dataset(dataset_config, rng);

  ShardedComparisonConfig config;
  config.bank.array_rows = 16;
  config.bank.array_cols = 64;
  config.bank.array_count = 1;
  config.bank.ideal_sensing = true;
  config.shards = 2;
  config.threshold = 4;
  config.workers = 2;
  config.kraken.k = 16;
  const ShardedComparisonResult result =
      run_sharded_comparison(config, dataset);
  EXPECT_EQ(result.cm_edam.total(), dataset.pair_count());
  EXPECT_GE(result.edam_f1, 0.0);
  EXPECT_LE(result.edam_f1, 1.0);
  EXPECT_GT(result.edam_energy_joules, 0.0);
  EXPECT_GT(result.edam_latency_seconds, 0.0);
  // Ideal sensing and no strategies on either side: same ED* filter, so
  // EDAM matches the plain ASMCap decisions' quality envelope.
  EXPECT_GT(result.edam_f1, 0.5);
}

}  // namespace
}  // namespace asmcap
