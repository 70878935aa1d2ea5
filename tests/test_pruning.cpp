// Tests of shard pruning (AsmcapAccelerator::may_match + the sharded
// router's probe path): the row-store probe is false-negative-free
// against the library ED* across random edit scripts at/below T, and
// prunes exactly what the legacy sketch pruned over randomized mutation
// histories (a pinned digest, plus asmcap/sketch.h's reference probe on
// every outcome); pruned and full fan-out produce bit-identical
// decisions/matched ids/latency on every backend (noisy circuit included)
// with energy exactly equal to the probed banks' sum; the ledger gains
// probe counters; repeated load_reference still throws with the probe
// intact; and pruning disabled is indistinguishable from the pre-pruning
// router.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <stdexcept>
#include <vector>

#include "align/edstar.h"
#include "asmcap/backend.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "asmcap/sketch.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/decision_digest.h"
#include "util/rng.h"

namespace asmcap {
namespace {

constexpr std::size_t kThreshold = 4;
constexpr std::size_t kShards = 5;

AsmcapConfig bank_config(bool ideal, bool pruning) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = 4;
  config.ideal_sensing = ideal;
  config.pruning.enabled = pruning;
  return config;
}

class PruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2301);
    reference_ = generate_reference(64 * 40 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(40);

    // Read mix: exact copies (must hit their bank), simulated reads with
    // condition-A errors (at/below T in expectation), reads with exactly
    // T random substitutions (the at-threshold edge), and uniform-random
    // reads (the prunable bulk).
    Rng read_rng(2302);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 32; ++i) {
      switch (i % 4) {
        case 0:
          reads_.push_back(segments_[static_cast<std::size_t>(
              read_rng.below(segments_.size()))]);
          break;
        case 1:
          reads_.push_back(
              sim.simulate_at(read_rng.below(40) * 64, read_rng).read);
          break;
        case 2: {
          Sequence read = segments_[static_cast<std::size_t>(
              read_rng.below(segments_.size()))];
          for (std::size_t e = 0; e < kThreshold; ++e) {
            const std::size_t pos = read_rng.below(read.size());
            read.set(pos, base_from_code(static_cast<std::uint8_t>(
                              read_rng.below(4))));
          }
          reads_.push_back(read);
          break;
        }
        default:
          reads_.push_back(Sequence::random(64, read_rng));
      }
    }
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// --------------------------------------------------- window-count bounds --

TEST(PruningWindowCount, IdealAndNoisyBounds) {
  const AsmcapConfig ideal = bank_config(/*ideal=*/true, /*pruning=*/true);
  // Noise-free decision paths need exactly the pigeonhole T + 1 windows.
  EXPECT_EQ(pruning_window_count(ideal, BackendKind::Functional, kThreshold),
            kThreshold + 1);
  EXPECT_EQ(pruning_window_count(ideal, BackendKind::Circuit, kThreshold),
            kThreshold + 1);
  // The noisy circuit path needs a wider margin (never fewer windows), and
  // the windows must still fit the row.
  const AsmcapConfig noisy = bank_config(/*ideal=*/false, /*pruning=*/true);
  const std::size_t noisy_windows =
      pruning_window_count(noisy, BackendKind::Circuit, kThreshold);
  EXPECT_GE(noisy_windows, kThreshold + 1);
  ASSERT_GT(noisy_windows, 0u);
  EXPECT_GE(noisy.array_cols / noisy_windows, 1u);
  // The functional backend is noise-free even under a noisy config.
  EXPECT_EQ(pruning_window_count(noisy, BackendKind::Functional, kThreshold),
            kThreshold + 1);
  // A threshold too large for disjoint windows disables pruning soundly.
  EXPECT_EQ(pruning_window_count(ideal, BackendKind::Functional,
                                 ideal.array_cols),
            0u);
}

TEST(PruningWindowCount, NoisyCountsArePinned) {
  // K is the miss side of charge_decision_band; these values predate that
  // helper and must never move (a smaller K would prune unsoundly, a
  // larger one would prune less).
  struct Row {
    std::size_t cols;
    double offset_sigma;
    std::size_t k[7];  // at T = 0, 1, 4, 8, 12, 16, 32
  };
  const Row rows[] = {
      {64, 0.5e-3, {2, 3, 7, 11, 16, 20, 38}},
      {64, 15e-3, {10, 11, 14, 19, 23, 28, 46}},
      {128, 0.5e-3, {4, 5, 8, 13, 17, 22, 39}},
      {128, 15e-3, {18, 20, 23, 27, 32, 36, 54}},
      {256, 0.5e-3, {6, 7, 11, 15, 20, 24, 42}},
      {256, 15e-3, {36, 37, 40, 45, 49, 54, 72}},
  };
  const std::size_t thresholds[] = {0, 1, 4, 8, 12, 16, 32};
  for (const Row& row : rows) {
    AsmcapConfig config;
    config.array_cols = row.cols;
    config.ideal_sensing = false;
    config.process.charge.sa_offset_sigma = row.offset_sigma;
    for (std::size_t i = 0; i < 7; ++i)
      EXPECT_EQ(pruning_window_count(config, BackendKind::Circuit,
                                     thresholds[i]),
                row.k[i])
          << "cols=" << row.cols << " offset=" << row.offset_sigma
          << " T=" << thresholds[i];
  }
}

// ------------------------------------------- false-negative-free property --

TEST_F(PruningTest, ProbeNeverPrunesABankWithAHit) {
  // Direct soundness property against the library ED*: for every plan
  // pass, a bank holding a row within the ideal decision threshold must
  // report may_match under the ideal window count (and a fortiori under
  // fewer windows). The noisy window count is larger, hence looser.
  ShardedAccelerator accel(bank_config(/*ideal=*/true, /*pruning=*/true),
                           kShards);
  accel.load_reference(segments_);
  const std::size_t windows = pruning_window_count(
      accel.config(), BackendKind::Functional, kThreshold);
  ASSERT_EQ(windows, kThreshold + 1);

  std::size_t hit_banks_checked = 0;
  for (const Sequence& read : reads_) {
    const ExecutionPlan plan = accel.controller().planner().build(
        read, kThreshold, accel.error_profile(), StrategyMode::Full);
    for (std::size_t s = 0; s < accel.active_shards(); ++s) {
      bool bank_has_hit = false;
      for (std::size_t g = accel.shard_base(s);
           g < accel.shard_base(s) + accel.shard_segments(s); ++g)
        for (const Sequence& pass : plan.ed_star_passes)
          if (ed_star(segments_[g], pass) <= kThreshold) bank_has_hit = true;
      if (bank_has_hit) {
        EXPECT_TRUE(accel.shard(s).may_match(plan, windows))
            << "bank " << s << " holds a row within T but was prunable";
        ++hit_banks_checked;
      }
    }
  }
  // The read mix guarantees the property was actually exercised.
  EXPECT_GT(hit_banks_checked, 0u);
}

// --------------------------------------------- bit-identity vs full fan-out

TEST_F(PruningTest, BitIdenticalToFullFanoutOnEveryBackend) {
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  for (const Case c : {Case{true, BackendKind::Circuit},
                       Case{false, BackendKind::Circuit},
                       Case{false, BackendKind::Functional}}) {
    ShardedAccelerator full(bank_config(c.ideal, /*pruning=*/false), kShards);
    ShardedAccelerator pruned(bank_config(c.ideal, /*pruning=*/true), kShards);
    full.load_reference(segments_);
    pruned.load_reference(segments_);
    full.set_backend(c.backend);
    pruned.set_backend(c.backend);

    // Same seeds => same silicon per bank, same master streams: on every
    // backend (the noisy circuit included) the probe may only skip banks
    // whose rows all decide 'no match' for every possible draw, so
    // decisions, matched ids, and latency are bit-identical.
    const auto full_batch =
        full.search_batch(reads_, kThreshold, StrategyMode::Full, 3);
    const auto pruned_batch =
        pruned.search_batch(reads_, kThreshold, StrategyMode::Full, 3);
    ASSERT_EQ(full_batch.size(), pruned_batch.size());
    for (std::size_t i = 0; i < full_batch.size(); ++i) {
      EXPECT_EQ(pruned_batch[i].decisions, full_batch[i].decisions)
          << "read " << i;
      EXPECT_EQ(pruned_batch[i].matched_segments,
                full_batch[i].matched_segments);
      EXPECT_EQ(pruned_batch[i].latency_seconds,
                full_batch[i].latency_seconds);
      // Energy drops to the probed banks' share, never rises.
      EXPECT_LE(pruned_batch[i].energy_joules, full_batch[i].energy_joules);
    }

    // Ledger: operation counts and latency identical; energy honestly
    // reduced; probe counters cover every (read x shard) pair.
    EXPECT_EQ(pruned.totals().queries, full.totals().queries);
    EXPECT_EQ(pruned.totals().searches, full.totals().searches);
    EXPECT_EQ(pruned.totals().hd_searches, full.totals().hd_searches);
    EXPECT_EQ(pruned.totals().rotation_searches,
              full.totals().rotation_searches);
    EXPECT_EQ(pruned.totals().latency_seconds, full.totals().latency_seconds);
    EXPECT_LE(pruned.totals().energy_joules, full.totals().energy_joules);
    EXPECT_EQ(pruned.totals().banks_probed + pruned.totals().banks_pruned,
              pruned.active_shards() * reads_.size());
    EXPECT_GT(pruned.totals().banks_pruned, 0u) << "nothing was pruned";
    EXPECT_EQ(full.totals().banks_probed, 0u);
    EXPECT_EQ(full.totals().banks_pruned, 0u);
  }
}

TEST_F(PruningTest, SequentialSearchBitIdenticalAndStreamPreserving) {
  // The sequential path advances the master stream once per query BEFORE
  // the probe, so pruning never shifts later queries' streams: a full and
  // a pruned router interleave identically read-for-read.
  ShardedAccelerator full(bank_config(/*ideal=*/false, /*pruning=*/false),
                          kShards);
  ShardedAccelerator pruned(bank_config(/*ideal=*/false, /*pruning=*/true),
                            kShards);
  full.load_reference(segments_);
  pruned.load_reference(segments_);
  for (const Sequence& read : reads_) {
    const QueryResult a = full.search(read, kThreshold, StrategyMode::Full, 2);
    const QueryResult b =
        pruned.search(read, kThreshold, StrategyMode::Full, 2);
    EXPECT_EQ(b.decisions, a.decisions);
    EXPECT_EQ(b.matched_segments, a.matched_segments);
    EXPECT_EQ(b.latency_seconds, a.latency_seconds);
  }
}

// ------------------------------------------------ exact energy accounting --

TEST_F(PruningTest, EnergyIsExactlyTheProbedBanksSum) {
  // On the functional backend pass energy is a pure function of the plan
  // and the bank's stored rows (no RNG dependence), so the pruned energy
  // must reconstruct exactly from the probe-predicted bank set.
  ShardedAccelerator pruned(bank_config(/*ideal=*/false, /*pruning=*/true),
                            kShards);
  pruned.load_reference(segments_);
  pruned.set_backend(BackendKind::Functional);
  const std::size_t windows = pruning_window_count(
      pruned.config(), BackendKind::Functional, kThreshold);
  const auto batch =
      pruned.search_batch(reads_, kThreshold, StrategyMode::Full, 2);

  const Rng any_rng(42);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    const ExecutionPlan plan = pruned.controller().planner().build(
        reads_[i], kThreshold, pruned.error_profile(), StrategyMode::Full);
    double expected = 0.0;
    for (std::size_t s = 0; s < pruned.active_shards(); ++s)
      if (pruned.shard(s).may_match(plan, windows))
        expected += pruned.shard(s).execute(plan, any_rng).energy_joules;
    EXPECT_EQ(batch[i].energy_joules, expected) << "read " << i;
  }
}

TEST(PruningAllBanksTest, AllPrunedReadKeepsLatencyAndZeroEnergy) {
  // A read no bank can match completes without executing anything: the
  // all-false decision shape, zero energy, and the SAME analytic pass
  // latency a full fan-out reports (latency is plan-determined).
  std::vector<Sequence> segments(20, Sequence::from_string(
                                         std::string(64, 'G')));
  const Sequence read(64);  // all 'A': ED* == 64 against every row
  ShardedAccelerator full(bank_config(/*ideal=*/true, /*pruning=*/false),
                          kShards);
  ShardedAccelerator pruned(bank_config(/*ideal=*/true, /*pruning=*/true),
                            kShards);
  full.load_reference(segments);
  pruned.load_reference(segments);

  const QueryResult a = full.search(read, kThreshold, StrategyMode::Full);
  const QueryResult b = pruned.search(read, kThreshold, StrategyMode::Full);
  EXPECT_EQ(b.decisions, a.decisions);
  EXPECT_TRUE(b.matched_segments.empty());
  EXPECT_EQ(b.latency_seconds, a.latency_seconds);
  EXPECT_EQ(b.energy_joules, 0.0);
  EXPECT_GT(a.energy_joules, 0.0);
  EXPECT_EQ(pruned.totals().banks_pruned, pruned.active_shards());
  EXPECT_EQ(pruned.totals().banks_probed, 0u);

  // The service path takes the same all-pruned shortcut.
  const auto batch =
      pruned.search_batch({read, read}, kThreshold, StrategyMode::Full, 2);
  for (const QueryResult& result : batch) {
    EXPECT_EQ(result.decisions, a.decisions);
    EXPECT_EQ(result.latency_seconds, a.latency_seconds);
    EXPECT_EQ(result.energy_joules, 0.0);
  }
}

// ----------------------------------------------------- service-path parity

TEST_F(PruningTest, ServiceSubmitMatchesBatchUnderPruning) {
  // A direct service submission with a tiny admission window must equal
  // search_batch (which is submit + drain with default options): per-read
  // shard subsets survive admission throttling, out-of-order completion,
  // and the merge-on-last-shard path.
  ShardedAccelerator a(bank_config(/*ideal=*/true, /*pruning=*/true),
                       kShards);
  ShardedAccelerator b(bank_config(/*ideal=*/true, /*pruning=*/true),
                       kShards);
  a.load_reference(segments_);
  b.load_reference(segments_);

  const auto batch = a.search_batch(reads_, kThreshold, StrategyMode::Full, 3);
  SearchService service(b);
  SearchService::Options options;
  options.workers = 3;
  options.max_in_flight = 2;
  const auto results =
      service.submit_borrowed(reads_, kThreshold, StrategyMode::Full, options)
          ->drain();
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i].decisions, batch[i].decisions);
    EXPECT_EQ(results[i].matched_segments, batch[i].matched_segments);
    EXPECT_EQ(results[i].energy_joules, batch[i].energy_joules);
    EXPECT_EQ(results[i].latency_seconds, batch[i].latency_seconds);
  }
  EXPECT_EQ(a.totals().banks_probed, b.totals().banks_probed);
  EXPECT_EQ(a.totals().banks_pruned, b.totals().banks_pruned);
}

// ------------------------------------------------- load-once probe contract

TEST_F(PruningTest, RepeatedLoadThrowsWithProbeIntact) {
  ShardedAccelerator accel(bank_config(/*ideal=*/true, /*pruning=*/true),
                           kShards);
  accel.load_reference(segments_);
  const std::size_t windows = pruning_window_count(
      accel.config(), BackendKind::Circuit, kThreshold);
  const auto outcomes = [&] {
    std::vector<bool> out;
    for (const Sequence& read : reads_) {
      const ExecutionPlan plan = accel.controller().planner().build(
          read, kThreshold, accel.error_profile(), StrategyMode::Full);
      for (std::size_t s = 0; s < accel.active_shards(); ++s)
        out.push_back(accel.shard(s).may_match(plan, windows));
    }
    return out;
  };
  const std::vector<bool> before = outcomes();

  EXPECT_THROW(accel.load_reference(segments_), std::logic_error);
  // The failed reload left the probe and the search path untouched.
  EXPECT_EQ(outcomes(), before);
  const QueryResult after =
      accel.search(reads_[0], kThreshold, StrategyMode::Full);

  ShardedAccelerator fresh(bank_config(/*ideal=*/true, /*pruning=*/true),
                           kShards);
  fresh.load_reference(segments_);
  const QueryResult expect =
      fresh.search(reads_[0], kThreshold, StrategyMode::Full);
  EXPECT_EQ(after.decisions, expect.decisions);
  EXPECT_EQ(after.energy_joules, expect.energy_joules);
}

// ---------------------------------------- probe outcomes, pinned by digest

TEST(PruningProbe, OutcomesOverMutationHistoriesArePinned) {
  // Every (read, bank) probe outcome over a randomized mutation history:
  // appends staged in the hot bank and folded into the cold banks,
  // deletes, recycled slots and compact(); T = 0..32 with the ideal and
  // the noisy window counts (TASR rotates from T = 13 at 64 columns); and
  // reads near stored rows (substitutions, one indel) and far from them.
  // Cold banks of 384 rows cross the 256-row block. The digest was pinned
  // on the per-row sketch that banks used to maintain, so the row-store
  // probe must prune exactly as it did; every outcome must also equal the
  // legacy reference probe (asmcap/sketch.h) built from the bank's live
  // rows.
  constexpr std::size_t kCols = 64;
  AsmcapConfig config;
  config.array_rows = 32;
  config.array_cols = kCols;
  config.array_count = 12;
  config.ideal_sensing = true;
  config.pruning.enabled = true;
  config.live.hot_array_rows = 16;
  config.live.hot_array_count = 4;
  AsmcapConfig noisy = config;
  noisy.ideal_sensing = false;

  Rng rng(0x9E0B'E5D1);
  const auto random_rows = [&](std::size_t count) {
    std::vector<Sequence> rows;
    for (std::size_t i = 0; i < count; ++i)
      rows.push_back(Sequence::random(kCols, rng));
    return rows;
  };
  ShardedAccelerator router(config, 3);
  router.load_reference(random_rows(700));

  DecisionDigest digest;
  std::size_t kept = 0;
  std::size_t pruned = 0;
  for (std::size_t step = 0; step < 16; ++step) {
    // One mutation: append a burst (some copies of live rows), delete a
    // random subset, or compact.
    const auto live = router.live_segments();
    switch (rng.below(4)) {
      case 0:
      case 1: {
        const std::size_t room = router.capacity_segments() - live.size();
        std::vector<Sequence> rows =
            random_rows(std::min<std::size_t>(room, 30 + rng.below(100)));
        for (Sequence& row : rows)
          if (rng.below(3) == 0) row = live[rng.below(live.size())].second;
        router.append_segments(rows);
        break;
      }
      case 2: {
        std::vector<std::uint64_t> ids;
        for (const auto& entry : live)
          if (rng.below(10) == 0) ids.push_back(entry.first);
        if (!ids.empty()) router.remove_segments(ids);
        break;
      }
      default:
        router.compact();
    }
    const auto rows = router.live_segments();
    std::vector<BankSketch> reference;
    for (std::size_t s = 0; s < router.active_shards(); ++s) {
      std::vector<Sequence> bank_rows;
      for (auto& entry : router.shard(s).live_segments())
        bank_rows.push_back(std::move(entry.second));
      reference.emplace_back(bank_rows, kCols);
    }
    for (std::size_t r = 0; r < 15; ++r) {
      Sequence read = Sequence::random(kCols, rng);
      if (r % 3 != 0) {
        read = rows[rng.below(rows.size())].second;
        const std::uint64_t edits = rng.below(6);
        for (std::uint64_t e = 0; e < edits; ++e)
          read.set(rng.below(kCols),
                   base_from_code(static_cast<std::uint8_t>(rng.below(4))));
        if (r % 3 == 2) {  // one indel: shift the tail by a cell
          read.erase(rng.below(kCols));
          read.push_back(base_from_code(
              static_cast<std::uint8_t>(rng.below(4))));
        }
      }
      for (std::size_t t = 0; t <= 32; ++t) {
        const ExecutionPlan plan = router.controller().planner().build(
            read, t, ErrorRates::condition_a(), StrategyMode::Full);
        for (const std::size_t windows :
             {pruning_window_count(config, BackendKind::Circuit, t),
              pruning_window_count(noisy, BackendKind::Circuit, t)}) {
          for (std::size_t s = 0; s < router.active_shards(); ++s) {
            const bool outcome = router.shard(s).may_match(plan, windows);
            EXPECT_EQ(outcome, reference[s].may_match(plan, windows))
                << "step " << step << " read " << r << " T " << t
                << " bank " << s;
            digest.add(outcome);
            ++(outcome ? kept : pruned);
          }
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(pruned, 0u);
  EXPECT_EQ(digest.value(), 0xe4bd0614b794ab0eULL)
      << std::hex << digest.value();
}

TEST_F(PruningTest, DisabledIsTodaysRouter) {
  // pruning.enabled == false must be byte-for-byte the pre-pruning
  // router: no probe counters, decisions/energy as before (the
  // cross-check against the enabled router is covered by the
  // bit-identity tests above).
  ShardedAccelerator accel(bank_config(/*ideal=*/false, /*pruning=*/false),
                           kShards);
  accel.load_reference(segments_);
  accel.search_batch(reads_, kThreshold, StrategyMode::Full, 2);
  EXPECT_EQ(accel.totals().banks_probed, 0u);
  EXPECT_EQ(accel.totals().banks_pruned, 0u);
}

}  // namespace
}  // namespace asmcap
