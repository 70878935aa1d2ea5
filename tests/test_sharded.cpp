// Tests of the sharded multi-bank accelerator: shard-count and
// worker-count invariance of decisions, the N == 1 query-stream formulas
// pinned against a bank's execute() (noisy circuit path included),
// placement-invariant silicon at seed 0, global-index re-basing at shard
// boundaries, ledger-total equivalence against a 1-shard router of the
// same total geometry, capacity enforcement, and the sharded read mapper.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "asmcap/db_error.h"
#include "asmcap/readmapper.h"
#include "asmcap/sharded.h"
#include "eval/experiment.h"
#include "genome/readsim.h"
#include "genome/reference.h"

namespace asmcap {
namespace {

AsmcapConfig bank_config(std::size_t array_count, bool ideal = true) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = array_count;
  config.ideal_sensing = ideal;
  return config;
}

class ShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1201);
    reference_ = generate_reference(64 * 40 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(40);

    Rng read_rng(1202);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 24; ++i) {
      switch (i % 3) {
        case 0:
          reads_.push_back(segments_[static_cast<std::size_t>(
              read_rng.below(segments_.size()))]);
          break;
        case 1:
          reads_.push_back(
              sim.simulate_at(read_rng.below(40) * 64, read_rng).read);
          break;
        default:
          reads_.push_back(Sequence::random(64, read_rng));
      }
    }
  }

  /// `n` reads 2–11 substitutions away from stored rows: mismatch counts
  /// land at small thresholds, where noisy sensing decides.
  std::vector<Sequence> edge_reads(std::size_t n, std::uint64_t seed) const {
    std::vector<Sequence> reads;
    Rng edit_rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      Sequence read = segments_[i % segments_.size()];
      for (std::size_t k = 0; k < 2 + i % 10; ++k) {
        const std::size_t pos = edit_rng.below(read.size());
        read.set(pos, base_from_code(static_cast<std::uint8_t>(
                          (code_of(read[pos]) + 1) & 3u)));
      }
      reads.push_back(read);
    }
    return reads;
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// ------------------------------------------------ shard-count invariance --

TEST_F(ShardedTest, DecisionsInvariantInShardAndWorkerCount) {
  // Noise-free decision paths (ideal circuit sensing here) must produce
  // identical decisions however the database is sharded and however many
  // workers run the router — HDAC's selection coins included, because
  // every per-decision stream is keyed by global segment id.
  std::vector<std::vector<QueryResult>> runs;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      ShardedAccelerator accel(bank_config(4), shards);
      accel.load_reference(segments_);
      runs.push_back(accel.search_batch(reads_, 4, StrategyMode::Full,
                                        workers));
    }
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].decisions, runs[0][i].decisions)
          << "run " << run << " read " << i;
      EXPECT_EQ(runs[run][i].matched_segments, runs[0][i].matched_segments);
      EXPECT_EQ(runs[run][i].plan.total_searches(),
                runs[0][i].plan.total_searches());
    }
  }
}

TEST_F(ShardedTest, FunctionalKindInvariantAcrossShards) {
  std::vector<std::vector<QueryResult>> runs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
    ShardedAccelerator accel(bank_config(4, /*ideal=*/false), shards);
    accel.load_reference(segments_);
    accel.set_backend(BackendKind::Functional);
    runs.push_back(accel.search_batch(reads_, 4, StrategyMode::Full, 2));
  }
  for (std::size_t i = 0; i < runs[0].size(); ++i)
    EXPECT_EQ(runs[1][i].decisions, runs[0][i].decisions) << "read " << i;
}

// ------------------------------------------------------ N == 1 identity --

TEST_F(ShardedTest, SingleShardBitIdenticalToMonolithicNoisy) {
  // The strongest contract: a 1-shard router — the monolithic search path
  // — must reproduce its one bank's execute() bit-for-bit on the noisy
  // circuit path when that bank is fed the stream formulas of
  // docs/determinism.md. Read i of the first batch runs against
  // Rng(seed).fork((1 << 32) | i); a later search() runs against
  // m.fork(m.next()) with a fresh m = Rng(seed), because a batch never
  // advances the master stream. The bank is the independent reference
  // that pins the formulas themselves. A loud SA (about 0.8 counts of
  // noise) on reads near the threshold makes decisions stream-dependent.
  AsmcapConfig config = bank_config(4, /*ideal=*/false);
  config.process.charge.sa_noise_sigma = 15e-3;
  std::vector<Sequence> reads = reads_;
  const std::vector<Sequence> edge = edge_reads(40, 1207);
  reads.insert(reads.end(), edge.begin(), edge.end());
  ShardedAccelerator sharded(config, 1);
  sharded.load_reference(segments_);
  const AsmcapAccelerator& bank = sharded.shard(0);
  auto plan_of = [&](const Sequence& read) {
    return sharded.controller().planner().build(
        read, 4, sharded.error_profile(), StrategyMode::Full);
  };
  std::size_t searches = 0;
  double energy = 0.0;
  double latency = 0.0;
  auto expect_equal = [&](const QueryResult& got,
                          const QueryResult& expected) {
    EXPECT_EQ(got.decisions, expected.decisions);
    EXPECT_EQ(got.matched_segments, expected.matched_segments);
    EXPECT_EQ(got.energy_joules, expected.energy_joules);
    EXPECT_EQ(got.latency_seconds, expected.latency_seconds);
    searches += expected.plan.total_searches();
    energy += expected.energy_joules;
    latency += expected.latency_seconds;
  };

  const auto batch = sharded.search_batch(reads, 4, StrategyMode::Full, 3);
  ASSERT_EQ(batch.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    SCOPED_TRACE(i);
    expect_equal(batch[i],
                 bank.execute(plan_of(reads[i]),
                              Rng(config.seed).fork((std::uint64_t{1} << 32) |
                                                    i)));
  }

  Rng master(config.seed);
  for (const Sequence& read : edge)
    expect_equal(sharded.search(read, 4, StrategyMode::Full),
                 bank.execute(plan_of(read), master.fork(master.next())));

  // The ledger books every read in order: its totals are the sums.
  EXPECT_EQ(sharded.totals().queries, reads.size() + edge.size());
  EXPECT_EQ(sharded.totals().searches, searches);
  EXPECT_EQ(sharded.totals().energy_joules, energy);
  EXPECT_EQ(sharded.totals().latency_seconds, latency);
}

// Rule 8 at seed 0: seed = 0 means "silicon from seed 0", and every bank
// must resolve it the same way. A router that derived per-bank seeds
// would hand bank s seed s — and bank s would draw its silicon from its
// OWN seed. A large per-row SA offset makes threshold-edge decisions
// depend on that silicon.
TEST_F(ShardedTest, SeedZeroSiliconIsPlacementInvariant) {
  AsmcapConfig config = bank_config(4, /*ideal=*/false);
  config.process.charge.sa_offset_sigma = 15e-3;
  config.seed = 0;

  const std::vector<Sequence> reads = edge_reads(200, 1206);
  // Each router runs its first batch, so every run forks the same streams.
  auto decide = [&](ShardedAccelerator& db) {
    return db.search_batch(reads, 6, StrategyMode::Baseline, 2);
  };
  auto expect_same_decisions = [&](const std::vector<QueryResult>& got,
                                   const std::vector<QueryResult>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i].decisions, want[i].decisions) << "read " << i;
  };

  ShardedAccelerator one(config, 1);
  one.load_reference(segments_);
  const std::vector<QueryResult> expected = decide(one);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(shards);
    ShardedAccelerator split(config, shards);
    split.load_reference(segments_);
    expect_same_decisions(decide(split), expected);
  }

  // An append stages ids 30..39 in the hot bank; compact() folds them
  // into the one-array cold banks' free rows, spilling over banks 0 and 1.
  AsmcapConfig small = config;
  small.array_count = 1;
  for (const bool fold : {false, true}) {
    SCOPED_TRACE(fold ? "compacted" : "staged");
    ShardedAccelerator grown(small, 3);
    grown.load_reference(std::vector<Sequence>(segments_.begin(),
                                               segments_.begin() + 30));
    grown.append_segments(
        std::vector<Sequence>(segments_.begin() + 30, segments_.end()));
    if (fold) grown.compact();
    ASSERT_EQ(grown.active_shards(), fold ? 3u : 4u);
    expect_same_decisions(decide(grown), expected);
  }
}

// ---------------------------------------------------------- re-basing ----

TEST_F(ShardedTest, GlobalIndexRebasingAtShardBoundaries) {
  // 10 segments over 3 shards partition as 4 + 3 + 3.
  std::vector<Sequence> segments(segments_.begin(), segments_.begin() + 10);
  ShardedAccelerator accel(bank_config(1), 3);
  accel.load_reference(segments);
  ASSERT_EQ(accel.shard_count(), 3u);
  EXPECT_EQ(accel.shard_base(0), 0u);
  EXPECT_EQ(accel.shard_base(1), 4u);
  EXPECT_EQ(accel.shard_base(2), 7u);
  EXPECT_EQ(accel.shard_segments(0), 4u);
  EXPECT_EQ(accel.shard_segments(1), 3u);
  EXPECT_EQ(accel.shard_segments(2), 3u);
  EXPECT_EQ(accel.loaded_segments(), 10u);
  EXPECT_EQ(accel.shard(1).loaded_segments(), 3u);

  // Exact copies of boundary rows must come back under their global ids:
  // the first row of shard 1 (local 0 -> global 4) and the last row of
  // shard 2 (local 2 -> global 9).
  for (const std::size_t global : {std::size_t{4}, std::size_t{9}}) {
    const QueryResult result =
        accel.search(segments[global], 0, StrategyMode::Baseline);
    ASSERT_EQ(result.decisions.size(), 10u);
    EXPECT_TRUE(result.decisions[global]) << "global " << global;
    EXPECT_NE(std::find(result.matched_segments.begin(),
                        result.matched_segments.end(), global),
              result.matched_segments.end());
  }
}

// ------------------------------------------------------------- ledger ----

TEST_F(ShardedTest, LedgerTotalsMatchMonolithicOnAlignedShards) {
  // 2 shards x 1 array x 16 rows vs one 1-shard bank of 2 arrays: the
  // shard boundaries coincide with array boundaries, so the sharded
  // system scans exactly the same silicon geometry and the ledgers must
  // agree (energy up to floating-point summation order). Misaligned
  // boundaries would honestly charge extra partially-filled arrays —
  // each bank drives its search lines per pass whatever its fill.
  std::vector<Sequence> segments(segments_.begin(), segments_.begin() + 32);
  ShardedAccelerator sharded(bank_config(1), 2);
  ShardedAccelerator mono(bank_config(2), 1);
  sharded.load_reference(segments);
  mono.load_reference(segments);
  sharded.set_backend(BackendKind::Functional);
  mono.set_backend(BackendKind::Functional);

  const auto sharded_results =
      sharded.search_batch(reads_, 4, StrategyMode::Full, 2);
  const auto mono_results = mono.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < mono_results.size(); ++i) {
    EXPECT_EQ(sharded_results[i].decisions, mono_results[i].decisions);
    EXPECT_EQ(sharded_results[i].latency_seconds,
              mono_results[i].latency_seconds);
    EXPECT_NEAR(sharded_results[i].energy_joules,
                mono_results[i].energy_joules,
                1e-9 * mono_results[i].energy_joules);
  }
  const ExecutionTotals& st = sharded.totals();
  const ExecutionTotals& mt = mono.totals();
  EXPECT_EQ(st.queries, mt.queries);
  EXPECT_EQ(st.searches, mt.searches);
  EXPECT_EQ(st.hd_searches, mt.hd_searches);
  EXPECT_EQ(st.rotation_searches, mt.rotation_searches);
  EXPECT_DOUBLE_EQ(st.latency_seconds, mt.latency_seconds);
  EXPECT_NEAR(st.energy_joules, mt.energy_joules,
              1e-9 * mt.energy_joules);
}

// ----------------------------------------------------------- capacity ----

TEST_F(ShardedTest, ShardingExtendsCapacityPastOneBank) {
  // Bank capacity 2 x 16 = 32 < 40 segments: one bank rejects the
  // database, two shards hold it.
  ShardedAccelerator mono(bank_config(2), 1);
  EXPECT_THROW(mono.load_reference(segments_), DbError);

  ShardedAccelerator sharded(bank_config(2), 2);
  EXPECT_EQ(sharded.capacity_segments(), 64u);
  sharded.load_reference(segments_);
  EXPECT_EQ(sharded.loaded_segments(), 40u);
  const QueryResult result =
      sharded.search(segments_[35], 0, StrategyMode::Baseline);
  EXPECT_TRUE(result.decisions[35]);
}

TEST_F(ShardedTest, MoreShardsThanSegmentsPopulatesOnlyActiveBanks) {
  // A tiny database must not create empty banks (which could never
  // execute a query): 8 configured shards over 5 segments populate 5
  // one-segment banks, and decisions still match the single-shard run.
  std::vector<Sequence> segments(segments_.begin(), segments_.begin() + 5);
  ShardedAccelerator wide(bank_config(1), 8);
  ShardedAccelerator single(bank_config(1), 1);
  wide.load_reference(segments);
  single.load_reference(segments);
  EXPECT_EQ(wide.shard_count(), 8u);
  EXPECT_EQ(wide.active_shards(), 5u);
  EXPECT_EQ(wide.shard_segments(4), 1u);
  EXPECT_THROW(wide.shard(5), std::out_of_range);

  const auto wide_results = wide.search_batch(reads_, 4, StrategyMode::Full, 2);
  const auto single_results =
      single.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < wide_results.size(); ++i)
    EXPECT_EQ(wide_results[i].decisions, single_results[i].decisions);
}

TEST_F(ShardedTest, AccessorsThrowBeforeLoad) {
  ShardedAccelerator accel(bank_config(2), 2);
  EXPECT_THROW(accel.active_shards(), std::logic_error);
  EXPECT_THROW(accel.shard(0), std::logic_error);
  EXPECT_THROW(accel.shard_base(0), std::logic_error);
  EXPECT_THROW(accel.shard_segments(0), std::logic_error);
}

TEST_F(ShardedTest, Validation) {
  EXPECT_THROW(ShardedAccelerator(bank_config(2), 0), std::invalid_argument);
  ShardedAccelerator accel(bank_config(2), 2);
  EXPECT_THROW(accel.search(reads_[0], 2, StrategyMode::Baseline),
               std::logic_error);
  EXPECT_THROW(accel.search_batch(reads_, 2, StrategyMode::Baseline, 2),
               std::logic_error);
  std::vector<Sequence> too_many(segments_);
  for (int i = 0; i < 30; ++i) too_many.push_back(segments_[0]);
  try {
    accel.load_reference(too_many);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::CapacityExceeded);
  }
  accel.load_reference(segments_);
  EXPECT_THROW(accel.load_reference(segments_), std::logic_error);
  EXPECT_TRUE(accel.search_batch({}, 2, StrategyMode::Baseline, 2).empty());
  Rng rng(1203);
  EXPECT_THROW(accel.search(Sequence::random(32, rng), 2,
                            StrategyMode::Baseline),
               std::invalid_argument);
}

// ----------------------------------------------------------- read mapper --

TEST_F(ShardedTest, ShardedMapperMatchesSingleBankMapper) {
  std::vector<std::vector<MappedRead>> runs;
  std::vector<MappingStats> stats;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    ReadMapper mapper(bank_config(4), segments_, 64, shards);
    std::vector<MappedRead> mapped;
    stats.push_back(
        mapper.map_batch(reads_, 4, StrategyMode::Full, &mapped, 2));
    runs.push_back(std::move(mapped));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].mapped, runs[1][i].mapped);
    EXPECT_EQ(runs[0][i].segment, runs[1][i].segment);
    EXPECT_EQ(runs[0][i].edit_distance, runs[1][i].edit_distance);
    EXPECT_EQ(runs[0][i].candidates, runs[1][i].candidates);
  }
  EXPECT_EQ(stats[0].mapped, stats[1].mapped);
  EXPECT_EQ(stats[0].total_candidates, stats[1].total_candidates);
  EXPECT_EQ(stats[0].host_dp_cells, stats[1].host_dp_cells);
}

// ------------------------------------------------------ eval comparison --

TEST_F(ShardedTest, ShardedComparisonRunsOnMultiBankDatabase) {
  Dataset dataset;
  dataset.rows = segments_;
  dataset.rates = ErrorRates::condition_a();
  dataset.name = "sharded";
  Rng rng(1204);
  ReadSimConfig sim_config;
  sim_config.read_length = 64;
  sim_config.rates = dataset.rates;
  const ReadSimulator sim(reference_, sim_config);
  for (int i = 0; i < 16; ++i) {
    DatasetQuery query;
    query.true_row = rng.below(40);
    query.read = sim.simulate_at(query.true_row * 64, rng).read;
    dataset.queries.push_back(query);
  }

  ShardedComparisonConfig config;
  config.bank = bank_config(2);  // capacity 32 < 40 rows: needs 2 banks
  config.shards = 2;
  config.threshold = 4;
  config.workers = 2;
  config.kraken.k = 16;
  config.live_mutation = true;  // delete / re-insert a tail block mid-run
  config.live_block = 8;
  const ShardedComparisonResult result =
      run_sharded_comparison(config, dataset);
  EXPECT_EQ(result.segments, 40u);
  EXPECT_EQ(result.cm_asmcap.total(), 16u * 40u);
  EXPECT_GT(result.asmcap_f1, 0.8);
  EXPECT_GE(result.asmcap_f1, result.kraken_f1);
  EXPECT_GT(result.accel_energy_joules, 0.0);
  EXPECT_GT(result.cmcpu_seconds, 0.0);

  // Live-mutation arm: deleting a contamination block must not harm the
  // surviving rows' accuracy, no tombstoned row may ever match, and the
  // re-inserted rows must classify as well as they did before deletion.
  EXPECT_EQ(result.live_deleted, 8u);
  EXPECT_TRUE(result.live_dead_rows_silent);
  EXPECT_GT(result.live_f1_after_delete, 0.8);
  EXPECT_GE(result.live_f1_after_reinsert, result.asmcap_f1 - 1e-12);
  EXPECT_GT(result.live_final_epoch, 1u);

  // One bank cannot hold the dataset: the capacity check must fire.
  config.shards = 1;
  EXPECT_THROW(run_sharded_comparison(config, dataset), DbError);
}

TEST_F(ShardedTest, Fig7RunnerEnforcesShardedCapacity) {
  Dataset dataset;
  dataset.rows = segments_;
  dataset.rates = ErrorRates::condition_a();
  Fig7Config config;
  config.asmcap = bank_config(2);  // capacity 32 < 40 rows
  config.shards = 1;
  Rng rng(1205);
  EXPECT_THROW(Fig7Runner(config).run(dataset, {4}, rng), DbError);
}

}  // namespace
}  // namespace asmcap
