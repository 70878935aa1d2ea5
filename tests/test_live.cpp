// Property tests of the live (mutable, epoch-snapshotted) database:
//  * epoch equivalence — after any append/delete/compact history, querying
//    the router is bit-identical (decisions, match ids, latency, ledger op
//    counts) to a fresh 1-shard router holding exactly the live
//    (id, segment) pairs, on every backend INCLUDING noisy circuit
//    sensing (per-id silicon keying makes noise placement-invariant);
//  * suffix-delete exactness — tombstoning a suffix leaves a one-bank
//    database bit-identical to a fresh prefix load, energy included;
//  * pinned-ticket isolation — a SearchTicket launched against epoch E
//    returns epoch E's exact results no matter what mutations publish
//    while it is in flight;
//  * tombstone lifecycle — slot recycling, id stability, and the typed
//    DbError taxonomy;
//  * hot-bank overflow and compaction — staging-bank geometry changes
//    (a hot bank of no rows included) never change decisions;
//  * probe consistency — shard pruning stays decision-neutral across
//    mutations;
//  * backend switching — a functional bank switched to the circuit
//    backend decides exactly like one that was Circuit from birth;
//  * silicon follows its id — on a noisy router where every row settles
//    on its silicon, every bank's pass decides like a per-row reference
//    that manufactures each live row alone from its id's stream, through
//    appends at the hot bank's edges, removes, recycled slots and folds;
//  * clone isolation — mutating a clone never leaks into its original,
//    noisy banks sharing one silicon memo included;
//  * the silicon memo under concurrent search — a noisy router searched
//    through the service on 4 workers decides the same with every memo
//    cold (each row's silicon drawn on its first in-band sensing, by
//    whichever worker gets there first) and warm, and as pinned;
//  * mutation histories — seeded random append / remove / compact /
//    search sequences on 1, 2 and 4 shards, checked after every step
//    against a slot-level model of the placement rules, against a fresh
//    bank holding the surviving rows, and (for tickets pinning an older
//    epoch) against what the ticket's epoch decided when it was pinned;
//    a digest of every epoch's slot ids, live bits and rows is pinned;
//  * split appends — the same rows appended in one call or in several
//    leave identical banks;
//  * in-place writes — with nothing pinned a mutation writes the banks it
//    touches in place; a db() snapshot or a live ticket keeps every bank
//    it pins bit-identical while the new epoch clones what it writes; a
//    rejected mutation (each DbErrorKind or a width mismatch) leaves the
//    published epoch as it was (test_live_alloc fails its allocations);
//    and a pin dropped on a pool thread orders its reads before an
//    in-place write.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <ios>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "asmcap/db_error.h"
#include "asmcap/edam.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "cam/cell.h"
#include "cam/charge_readout.h"
#include "circuit/sense_amp.h"
#include "circuit/timing.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "live_in_place.h"
#include "util/decision_digest.h"
#include "util/lane_flags.h"

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

class LiveDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2301);
    reference_ = generate_reference(64 * 50 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(50);

    Rng read_rng(2302);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 18; ++i) {
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

  std::vector<Sequence> first(std::size_t n) const {
    return std::vector<Sequence>(segments_.begin(), segments_.begin() + n);
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// After load + append + mid-database deletes + compact, the router must
// answer every query exactly like a fresh 1-shard router that holds the
// surviving (id, segment) pairs and nothing else — decisions, global
// match ids, latency, and ledger operation counts all equal, on the noisy
// circuit path too. This is the core guarantee of the live database: a
// mutation history is indistinguishable from the database it produced.
TEST_F(LiveDbTest, EpochEquivalentToFreshLoadOfLiveSegments) {
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  const Case cases[] = {{true, BackendKind::Circuit},
                       {false, BackendKind::Circuit},
                       {true, BackendKind::Functional}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.ideal ? "ideal" : "noisy");
    ShardedAccelerator router(bank_config(2, c.ideal), 2);
    router.set_backend(c.backend);
    router.set_error_profile(ErrorRates::condition_a());
    router.load_reference(first(30));
    const std::vector<std::uint64_t> fresh = router.append_segments(
        std::vector<Sequence>(segments_.begin() + 30, segments_.begin() + 40));
    ASSERT_EQ(fresh.front(), 30u);
    router.remove_segments({3, 17, 25, 31});
    router.compact();
    ASSERT_EQ(router.live_segment_count(), 36u);

    // The replay: one bank with the same seed (hence the same silicon root
    // and query streams) that loads every id in order, then drops the
    // router's dead ones.
    ShardedAccelerator mono(bank_config(4, c.ideal), 1);
    mono.set_backend(c.backend);
    mono.set_error_profile(ErrorRates::condition_a());
    mono.load_reference(first(40));
    mono.remove_segments({3, 17, 25, 31});
    ASSERT_EQ(mono.live_segments(), router.live_segments());

    for (const Sequence& read : reads_) {
      const QueryResult a = router.search(read, 4, StrategyMode::Full);
      const QueryResult b = mono.search(read, 4, StrategyMode::Full);
      EXPECT_EQ(a.decisions, b.decisions);
      EXPECT_EQ(a.matched_segments, b.matched_segments);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
    }
    const ExecutionTotals& rt = router.totals();
    const ExecutionTotals& mt = mono.totals();
    EXPECT_EQ(rt.queries, mt.queries);
    EXPECT_EQ(rt.searches, mt.searches);
    EXPECT_EQ(rt.hd_searches, mt.hd_searches);
    EXPECT_EQ(rt.rotation_searches, mt.rotation_searches);
    EXPECT_EQ(rt.latency_seconds, mt.latency_seconds);
  }
}

// Deleting a suffix of ids leaves the surviving rows in exactly the slots
// a fresh prefix load would use, so EVERYTHING must be bit-identical —
// energy included: a tombstoned row's all-ones mask has zero matchline
// swing, and a fully-dead array drops out of the SL-driver term.
TEST_F(LiveDbTest, SuffixDeleteBitIdenticalToPrefixLoadIncludingEnergy) {
  for (const bool ideal : {true, false}) {
    SCOPED_TRACE(ideal ? "ideal" : "noisy");
    ShardedAccelerator pruned(bank_config(3, ideal), 1);
    pruned.set_error_profile(ErrorRates::condition_a());
    pruned.load_reference(first(40));
    std::vector<std::uint64_t> tail;
    for (std::uint64_t id = 30; id < 40; ++id) tail.push_back(id);
    pruned.remove_segments(tail);

    ShardedAccelerator fresh(bank_config(3, ideal), 1);
    fresh.set_error_profile(ErrorRates::condition_a());
    fresh.load_reference(first(30));

    for (const Sequence& read : reads_) {
      const QueryResult a = pruned.search(read, 4, StrategyMode::Full);
      const QueryResult b = fresh.search(read, 4, StrategyMode::Full);
      ASSERT_EQ(a.decisions.size(), 40u);
      ASSERT_EQ(b.decisions.size(), 30u);
      for (std::size_t i = 0; i < 30; ++i)
        EXPECT_EQ(a.decisions[i], b.decisions[i]);
      for (std::size_t i = 30; i < 40; ++i) EXPECT_FALSE(a.decisions[i]);
      EXPECT_EQ(a.matched_segments, b.matched_segments);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
      EXPECT_EQ(a.energy_joules, b.energy_joules);
    }
  }
}

// A ticket submitted against epoch E must return epoch E's exact results
// even when appends, deletes, and a compaction all publish while it is in
// flight: the ticket pins the epoch snapshot at launch, and copy-on-write
// means no mutation can touch a pinned bank. The quiesced reference is an
// identical router that never mutates.
TEST_F(LiveDbTest, PinnedTicketIsIsolatedFromConcurrentMutations) {
  ShardedAccelerator quiet(bank_config(2), 2);
  quiet.load_reference(first(40));
  const std::vector<QueryResult> expected =
      quiet.search_batch(reads_, 4, StrategyMode::Full, 2);

  ShardedAccelerator live(bank_config(2), 2);
  live.load_reference(first(40));
  SearchService service(live);
  SearchService::Options options;
  options.workers = 2;
  auto ticket =
      service.submit_borrowed(reads_, 4, StrategyMode::Full, options);

  // Mutate while the ticket is in flight (whatever the interleaving, the
  // pinned epoch makes the outcome identical).
  live.append_segments(
      std::vector<Sequence>(segments_.begin() + 40, segments_.begin() + 48));
  live.remove_segments({0, 11, 39});
  live.compact();

  ticket->wait();
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    const QueryResult& got = ticket->result(i);
    EXPECT_EQ(got.decisions, expected[i].decisions);
    EXPECT_EQ(got.matched_segments, expected[i].matched_segments);
    EXPECT_EQ(got.latency_seconds, expected[i].latency_seconds);
    EXPECT_EQ(got.energy_joules, expected[i].energy_joules);
  }

  // A search AFTER the mutations sees the new epoch: a wider id space and
  // silent tombstones.
  const QueryResult after = live.search(segments_[5], 0, StrategyMode::Full);
  EXPECT_EQ(after.decisions.size(), 48u);
  EXPECT_FALSE(after.decisions[0]);
  EXPECT_FALSE(after.decisions[11]);
  EXPECT_FALSE(after.decisions[39]);
  EXPECT_TRUE(after.decisions[5]);
}

// Slot recycling and the id lifecycle: a tombstoned slot is reused by the
// next append, its old id becomes Unknown (never reusable), double
// deletes and duplicate ids are typed errors, and a recycled slot answers
// under its new id only.
TEST_F(LiveDbTest, TombstoneRecyclingKeepsIdsStable) {
  AsmcapAccelerator accel(bank_config(1));
  accel.load_reference(first(10));
  // execute() is slot-indexed; the directory maps slots to global ids.
  auto exact = [&](const Sequence& read) {
    const ExecutionPlan plan = accel.planner().build(
        read, 0, ErrorRates::condition_a(), StrategyMode::Full);
    return accel.execute(plan, Rng(2305));
  };

  accel.remove_segments({3, 7});
  EXPECT_EQ(accel.live_segment_count(), 8u);
  EXPECT_EQ(accel.loaded_segments(), 10u);  // Slots, not live rows.
  EXPECT_EQ(accel.segment_state(3), SegmentState::Dead);

  // A dead row never matches, even its exact content.
  const QueryResult dead = exact(segments_[3]);
  EXPECT_FALSE(dead.decisions[3]);

  // Recycle both tombstones; ids continue from the high-water mark.
  const std::vector<std::uint64_t> fresh = accel.append_segments(
      {segments_[40], segments_[41]});
  EXPECT_EQ(fresh, (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(accel.loaded_segments(), 10u);  // Reused slots 3 and 7.
  EXPECT_EQ(accel.segment_state(3), SegmentState::Unknown);  // Recycled.
  EXPECT_EQ(accel.segment_state(10), SegmentState::Live);

  // The new rows answer under their NEW global ids: id 10 took slot 3.
  const QueryResult hit = exact(segments_[40]);
  EXPECT_EQ(hit.matched_segments, (std::vector<std::size_t>{3}));
  EXPECT_EQ(accel.directory().ids[3], 10u);

  try {
    accel.remove_segments({3});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::UnknownSegment);
  }
  accel.remove_segments({10});
  try {
    accel.remove_segments({10});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::DoubleDelete);
  }
  try {
    // Id 5 is still live.
    accel.append_segments(std::vector<Sequence>{segments_[42]},
                          std::vector<std::uint64_t>{5});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::DuplicateId);
  }
}

// Hot-bank overflow folds the staging rows into the cold tier mid-append,
// and explicit compaction does the same at an epoch boundary; neither may
// change a single decision. Two routers with identical mutation history —
// one compacted, one not — must agree bit-for-bit.
TEST_F(LiveDbTest, HotBankOverflowAndCompactionAreDecisionNeutral) {
  AsmcapConfig config = bank_config(2);
  config.live.hot_array_rows = 4;
  config.live.hot_array_count = 2;  // Hot capacity 8 < the 20 appends.

  auto build = [&]() {
    auto router = std::make_unique<ShardedAccelerator>(config, 2);
    router->load_reference(first(25));
    router->append_segments(
        std::vector<Sequence>(segments_.begin() + 25, segments_.begin() + 45));
    router->remove_segments({2, 30, 44});
    return router;
  };
  auto plain = build();
  auto compacted = build();
  const std::uint64_t before = compacted->epoch();
  EXPECT_GT(compacted->compact(), before);
  // A second compact is a no-op: nothing is staged any more.
  EXPECT_EQ(compacted->compact(), compacted->epoch());

  EXPECT_EQ(plain->live_segment_count(), compacted->live_segment_count());
  EXPECT_EQ(plain->live_segments(), compacted->live_segments());

  const std::vector<QueryResult> a =
      plain->search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      compacted->search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds);
  }
}

// A router with no hot rows stages nothing: every append folds straight
// into the cold tier, compact() has nothing to do, and the database
// decides like a frozen load of the same rows.
TEST_F(LiveDbTest, ZeroHotCapacityAppendsStraightIntoTheColdTier) {
  AsmcapConfig config = bank_config(2);
  config.live.hot_array_rows = 0;
  ShardedAccelerator router(config, 2);
  router.append_segments(first(20));
  router.append_segments(
      std::vector<Sequence>(segments_.begin() + 20, segments_.begin() + 27));
  EXPECT_FALSE(router.db()->has_hot);
  EXPECT_EQ(router.live_segment_count(), 27u);
  EXPECT_EQ(router.compact(), router.epoch());

  ShardedAccelerator frozen(bank_config(4), 1);
  frozen.load_reference(first(27));
  EXPECT_EQ(router.live_segments(), frozen.live_segments());
  const std::vector<QueryResult> a =
      router.search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      frozen.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
  }
}

// Shard pruning must stay decision-neutral across mutations: the probe
// reads each bank's row store and live words as every append, delete and
// fold leaves them, and a stale live word or a recycled slot's old row
// would prune a bank that holds a real hit. Equality against an unpruned
// twin after a full mutation history proves the probe tracks them.
TEST_F(LiveDbTest, PruningDecisionNeutralAfterMutations) {
  AsmcapConfig pruned_config = bank_config(2);
  pruned_config.pruning.enabled = true;
  AsmcapConfig plain_config = bank_config(2);
  plain_config.pruning.enabled = false;

  auto mutate = [&](ShardedAccelerator& router) {
    router.load_reference(first(30));
    router.append_segments(
        std::vector<Sequence>(segments_.begin() + 30, segments_.begin() + 42));
    router.remove_segments({1, 8, 33, 41});
    router.compact();
  };
  ShardedAccelerator pruned(pruned_config, 2);
  ShardedAccelerator plain(plain_config, 2);
  mutate(pruned);
  mutate(plain);

  const std::vector<QueryResult> a =
      pruned.search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      plain.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
  }
  // Every (query, bank) pair was either probed or pruned, never dropped.
  EXPECT_EQ(pruned.totals().banks_probed + pruned.totals().banks_pruned,
            reads_.size() * pruned.active_shards());
}

void expect_same_results(const std::vector<QueryResult>& a,
                         const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds);
    EXPECT_EQ(a[i].energy_joules, b[i].energy_joules);
  }
}

void expect_same_totals(const ExecutionTotals& a, const ExecutionTotals& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.hd_searches, b.hd_searches);
  EXPECT_EQ(a.rotation_searches, b.rotation_searches);
  EXPECT_EQ(a.latency_seconds, b.latency_seconds);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
}

// A functional bank senses no noise; switched to the circuit backend, it
// senses on the per-id silicon. That must be indistinguishable from a
// bank that was Circuit from birth with the same history — decisions,
// match ids, latency, energy, and ledger totals, under noisy sensing —
// through hot-bank overflow, deletes, tombstone-slot recycling, and
// compaction, and on a clone too.
TEST_F(LiveDbTest, LazyCircuitStateMatchesCircuitFromBirth) {
  // A large per-row SA offset — silicon, not query noise — makes decisions
  // near the threshold depend on which silicon each row was built with.
  auto silicon_config = [](std::size_t array_count) {
    AsmcapConfig config = bank_config(array_count, /*ideal=*/false);
    config.process.charge.sa_offset_sigma = 15e-3;
    return config;
  };
  AsmcapConfig config = silicon_config(2);
  config.live.hot_array_rows = 4;
  config.live.hot_array_count = 2;  // Hot capacity 8 < the 12 appends.
  auto mutate = [&](ShardedAccelerator& router) {
    router.set_error_profile(ErrorRates::condition_a());
    router.load_reference(first(25));
    router.remove_segments({4, 9});
    // Overflows the hot bank: the fold recycles cold slots 4 and 9.
    router.append_segments(
        std::vector<Sequence>(segments_.begin() + 25, segments_.begin() + 37));
    router.remove_segments({34});
    // Id 37 recycles the hot bank's tombstoned slot.
    router.append_segments({segments_[37], segments_[38]});
    router.compact();
  };
  // Reads a few substitutions away from stored rows put mismatch counts
  // right at the thresholds, where the silicon decides.
  std::vector<Sequence> reads = reads_;
  Rng edit_rng(2304);
  for (std::size_t i = 0; i < 39; ++i) {
    Sequence read = segments_[i];
    for (std::size_t k = 0; k < 1 + i % 9; ++k) {
      const std::size_t pos = edit_rng.below(read.size());
      read.set(pos, base_from_code(static_cast<std::uint8_t>(
                        (code_of(read[pos]) + 1) & 3u)));
    }
    reads.push_back(read);
  }
  const std::vector<std::size_t> thresholds = {2, 5, 8};
  auto search_all = [&](ShardedAccelerator& db) {
    std::vector<QueryResult> out;
    for (const std::size_t t : thresholds)
      for (const Sequence& read : reads)
        out.push_back(db.search(read, t, StrategyMode::Full));
    return out;
  };

  {
    SCOPED_TRACE("router");
    ShardedAccelerator lazy(config, 2);
    lazy.set_backend(BackendKind::Functional);
    mutate(lazy);
    lazy.set_backend(BackendKind::Circuit);
    ShardedAccelerator birth(config, 2);
    mutate(birth);
    ASSERT_EQ(lazy.live_segments(), birth.live_segments());
    expect_same_results(search_all(lazy), search_all(birth));
    expect_same_totals(lazy.totals(), birth.totals());
    EXPECT_EQ(lazy.load_energy_joules(), birth.load_energy_joules());
  }

  // Bank level, through clone(): the functional original stays functional.
  SCOPED_TRACE("clone");
  auto bank_history = [&](AsmcapAccelerator& bank) {
    bank.load_reference(first(30));
    bank.remove_segments({3, 17});
    bank.append_segments({segments_[40], segments_[41], segments_[42]});
    bank.remove_segments({29});
  };
  AsmcapAccelerator functional(silicon_config(3));
  functional.set_backend(BackendKind::Functional);
  bank_history(functional);
  AsmcapAccelerator born(silicon_config(3));
  bank_history(born);
  const std::unique_ptr<AsmcapAccelerator> copy = functional.clone();
  copy->set_backend(BackendKind::Circuit);
  EXPECT_EQ(functional.backend_kind(), BackendKind::Functional);
  auto execute_all = [&](const AsmcapAccelerator& bank) {
    std::vector<QueryResult> out;
    for (const std::size_t t : thresholds)
      for (std::size_t i = 0; i < reads.size(); ++i) {
        const ExecutionPlan plan = bank.planner().build(
            reads[i], t, ErrorRates::condition_a(), StrategyMode::Full);
        out.push_back(bank.execute(plan, Rng(2306 + t).fork(i)));
      }
    return out;
  };
  expect_same_results(execute_all(*copy), execute_all(born));
  EXPECT_EQ(copy->load_energy_joules(), born.load_energy_joules());
}

// A noisy router's rows settle on the silicon of their ids, wherever they
// live and however they got there. At 0.5 V of SA offset every count is
// in the noise band, so every live row settles on its silicon in every
// pass. After each step of a history on a 4x2 hot bank — appends of 1,
// H - 1, H, H + 1 and 2H + 1 rows (H = 8), removes in hot and cold banks,
// recycled slots, and compact() — every bank's ED* and Hamming pass must
// decide each live id like a reference that manufactures the row alone,
// as ChargeArrayReadout(1, cols, charge, Rng(seed).fork(0x51C0).fork(id)),
// flags its cells with the cell model, and draws the SA from the per-id
// fork of the pass's stream. A fold that drew a moved row's silicon again
// from another stream, or copied it from the wrong row of the hot bank
// (4-row arrays) into a cold one (16-row arrays), fails here.
TEST_F(LiveDbTest, NoisySiliconFollowsItsId) {
  constexpr std::size_t kThreshold = 4;
  AsmcapConfig config = bank_config(4, /*ideal=*/false);
  config.process.charge.sa_offset_sigma = 0.5;
  config.live.hot_array_rows = 4;
  config.live.hot_array_count = 2;
  const std::size_t hot = 8;
  const ChargeDecisionBand band = charge_decision_band(
      config.process.charge, config.array_cols, kThreshold);
  ASSERT_EQ(band.hit_below, 0u);
  ASSERT_GT(band.miss_from, config.array_cols);
  const Rng silicon_root = Rng(config.seed).fork(0x51C0);

  for (const std::size_t shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    ShardedAccelerator router(config, shards);
    Rng rng(2310 + shards);
    std::vector<Sequence> rows;  // By global id.
    const auto append = [&](std::size_t count) {
      std::vector<Sequence> batch;
      for (std::size_t i = 0; i < count; ++i)
        batch.push_back(Sequence::random(config.array_cols, rng));
      rows.insert(rows.end(), batch.begin(), batch.end());
      router.append_segments(batch);
    };
    const auto check = [&](const char* step) {
      SCOPED_TRACE(step);
      const std::vector<std::pair<std::uint64_t, Sequence>> live =
          router.live_segments();
      for (std::size_t i = 0; i < 6; ++i) {
        // Reads a few substitutions from live rows, and random ones.
        Sequence read = Sequence::random(config.array_cols, rng);
        if (i < 4) {
          read = live[rng.below(live.size())].second;
          for (std::uint64_t e = rng.below(6); e > 0; --e)
            read.set(rng.below(read.size()),
                     base_from_code(static_cast<std::uint8_t>(rng.below(4))));
        }
        const Rng stream = Rng(2320).fork(i);
        for (const MatchMode mode : {MatchMode::EdStar, MatchMode::Hamming}) {
          const PackedReadView view(read, mode == MatchMode::EdStar);
          const PassSpec spec{&view, mode == MatchMode::EdStar ? 0u : 0x4844u};
          std::vector<std::uint64_t> got;
          for (const auto& bank : router.db()->banks) {
            const BitVec decisions =
                bank->run_passes(std::span(&spec, 1), kThreshold, stream)
                    .front()
                    .decisions;
            for (std::size_t slot = decisions.find_first();
                 slot < decisions.size(); slot = decisions.find_next(slot + 1))
              got.push_back(bank->directory().ids[slot]);
          }
          std::sort(got.begin(), got.end());
          std::vector<std::uint64_t> want;
          const Rng pass_rng = stream.fork(spec.salt);
          for (const auto& entry : live) {
            const std::uint64_t id = entry.first;
            const Sequence& row = rows[id];
            Rng manufacture = silicon_root.fork(id);
            const ChargeArrayReadout readout(1, config.array_cols,
                                             config.process.charge,
                                             manufacture);
            std::vector<std::uint64_t> cells(lane_word_count(row.size()), 0);
            for (std::size_t cell = 0; cell < row.size(); ++cell)
              if (AsmcapCell(row[cell]).mismatch(read, cell, mode))
                set_lane_flag(cells, cell);
            Rng decide_rng = pass_rng.fork(id);
            if (readout.decide(readout.settle_row(0, cells), kThreshold,
                               decide_rng))
              want.push_back(id);
          }
          EXPECT_EQ(got, want) << "read " << i << " mode "
                               << (mode == MatchMode::EdStar ? "ED*" : "HD");
        }
      }
    };

    std::vector<Sequence> initial;
    for (std::size_t i = 0; i < 12; ++i)
      initial.push_back(Sequence::random(config.array_cols, rng));
    rows = initial;
    router.load_reference(initial);
    check("load 12");
    append(1);  // id 12 stages in the hot bank
    check("append 1");
    router.remove_segments({3, 12});  // a cold row and the hot one
    check("remove in cold and hot");
    append(hot - 1);  // ids 13-19; id 13 recycles id 12's hot slot
    check("append H - 1");
    append(hot);  // folds 13-20, stages 21-27 (1-2 shards: 13 takes 3's slot)
    check("append H");
    router.remove_segments({5, 13, 22});
    check("remove in cold and hot again");
    append(hot + 1);  // folds the staged rows and 28-29, stages 30-36
    check("append H + 1");
    router.compact();
    check("compact");
    append(2 * hot + 1);  // folds 37-52 from the batch, stages 53
    check("append 2H + 1");
    router.remove_segments({40, 53});
    append(1);  // id 54 recycles id 53's hot slot
    check("remove and recycle");
    router.compact();
    check("compact again");
    EXPECT_FALSE(router.db()->has_hot);
    EXPECT_EQ(router.live_segment_count(), 48u);
    if (HasFatalFailure()) return;
  }
}

// The silicon memo under concurrent search. A noisy 128-column router (2
// shards of 4 x 64 rows) is searched at T = 32 (5 TASR passes per read)
// through SearchService on 4 workers, twice. The first ticket finds every
// memo empty, so the workers draw each in-band row's silicon as they
// first sense it, racing for the rows that several reads share; the
// second finds the memos warm and draws nothing. Both tickets' decisions
// and energies must match a digest pinned on the code that drew every
// row's silicon when it wrote the row, and energy is count-pure, so the
// two agree read for read. The second ticket forks its streams from
// another batch epoch than the first, so a twin router, whose first
// ticket senses ideally, runs the same second ticket on cold memos: warm
// and cold must agree read for read. The thread-sanitize CI job repeats
// this case.
TEST_F(LiveDbTest, NoisySiliconMemoFillsUnderConcurrentSearch) {
  constexpr std::size_t kThreshold = 32;
  constexpr std::uint64_t kPinned = 0x042cc4e7dc992425;
  AsmcapConfig config;
  config.array_rows = 64;
  config.array_cols = 128;
  config.array_count = 4;
  config.ideal_sensing = false;
  Rng rng(2330);
  const Sequence reference = generate_reference(128 * 512 + 256, {}, rng);
  std::vector<Sequence> rows = segment_reference(reference, 128);
  rows.resize(512);
  // Stored rows with 8..71 substitutions, so that counts spread over the
  // band.
  std::vector<Sequence> reads;
  for (std::size_t i = 0; i < 48; ++i) {
    Sequence read = rows[rng.below(rows.size())];
    for (std::uint64_t e = 8 + rng.below(64); e > 0; --e)
      read.set(rng.below(read.size()),
               base_from_code(static_cast<std::uint8_t>(rng.below(4))));
    reads.push_back(read);
  }
  const auto search = [&](ShardedAccelerator& router) {
    SearchService service(router);
    SearchService::Options options;
    options.workers = 4;
    return service
        .submit_borrowed(reads, kThreshold, StrategyMode::Full, options)
        ->drain();
  };
  const auto drawn = [](const ShardedAccelerator& router) {
    std::size_t rows_drawn = 0;
    for (std::size_t s = 0; s < router.active_shards(); ++s)
      rows_drawn += router.shard(s).silicon()->size();
    return rows_drawn;
  };

  ShardedAccelerator router(config, 2);
  router.load_reference(rows);
  ASSERT_EQ(drawn(router), 0u);
  const std::vector<QueryResult> cold = search(router);
  const std::size_t cold_drawn = drawn(router);
  EXPECT_GT(cold_drawn, 0u);
  EXPECT_LT(cold_drawn, rows.size());
  const std::vector<QueryResult> warm = search(router);
  EXPECT_EQ(drawn(router), cold_drawn);

  DecisionDigest digest;
  ASSERT_EQ(cold.size(), reads.size());
  ASSERT_EQ(warm.size(), reads.size());
  for (const std::vector<QueryResult>* run : {&cold, &warm})
    for (const QueryResult& result : *run) {
      EXPECT_EQ(result.plan.total_searches(), 5u);
      digest.add_u64(result.matched_segments.size());
      for (const std::size_t id : result.matched_segments) digest.add_u64(id);
      digest.add_u64(std::bit_cast<std::uint64_t>(result.energy_joules));
    }
  EXPECT_EQ(digest.value(), kPinned) << std::hex << digest.value();
  for (std::size_t i = 0; i < reads.size(); ++i)
    EXPECT_EQ(cold[i].energy_joules, warm[i].energy_joules) << "read " << i;

  ShardedAccelerator twin(config, 2);
  twin.load_reference(rows);
  twin.set_backend(BackendKind::Functional);
  search(twin);
  twin.set_backend(BackendKind::Circuit);
  ASSERT_EQ(drawn(twin), 0u);
  expect_same_results(search(twin), warm);
  EXPECT_EQ(drawn(twin), cold_drawn);
}

// A clone shares no state with its original: removing rows from the clone
// must leave the original's execute() results untouched and show up in
// the clone's exactly as if the original had removed them — on both
// backend kinds. A clone whose backend still reads the original's directory,
// row store, or array units fails one side or the other.
TEST_F(LiveDbTest, CloneIsIsolatedFromItsOriginal) {
  for (const BackendKind backend :
       {BackendKind::Circuit, BackendKind::Functional}) {
    SCOPED_TRACE(to_string(backend));
    auto build = [&]() {
      auto bank = std::make_unique<AsmcapAccelerator>(bank_config(3, false));
      bank->set_backend(backend);
      bank->load_reference(first(30));
      bank->remove_segments({3, 17, 21});
      // Ids 30 and 31 recycle slots 3 and 17.
      bank->append_segments({segments_[40], segments_[41]});
      return bank;
    };
    std::vector<Sequence> reads = reads_;
    reads.push_back(segments_[5]);
    auto execute_all = [&](const AsmcapAccelerator& bank) {
      std::vector<QueryResult> out;
      for (std::size_t i = 0; i < reads.size(); ++i) {
        const ExecutionPlan plan = bank.planner().build(
            reads[i], 4, ErrorRates::condition_a(), StrategyMode::Full);
        out.push_back(bank.execute(plan, Rng(2303).fork(i)));
      }
      return out;
    };

    const std::unique_ptr<AsmcapAccelerator> original = build();
    const std::vector<QueryResult> before = execute_all(*original);
    const std::unique_ptr<AsmcapAccelerator> copy = original->clone();
    copy->remove_segments({5, 30});
    const std::unique_ptr<AsmcapAccelerator> twin = build();
    twin->remove_segments({5, 30});

    expect_same_results(execute_all(*original), before);
    const std::vector<QueryResult> cloned = execute_all(*copy);
    expect_same_results(cloned, execute_all(*twin));
    EXPECT_EQ(original->segment_state(5), SegmentState::Live);
    EXPECT_EQ(copy->segment_state(5), SegmentState::Dead);
    EXPECT_FALSE(cloned.back().decisions[5]);
    EXPECT_FALSE(cloned.back().decisions[3]);
  }

  // Noisy, with an SA offset large enough that every decision rests on a
  // row's silicon: a stored row read back (no mismatches) decides on its
  // own SA offset alone, so the original's decisions over its 30 rows
  // fingerprint their silicon. The clone shares the original's silicon
  // memo, and its append recycles 20 slots still live in the original
  // with new ids, whose rows must settle on their own silicon, never on
  // their slots' former occupants': the original must decide, and book
  // energy, bit for bit as before, and the clone like a twin with the
  // same history.
  SCOPED_TRACE("noisy append");
  AsmcapConfig noisy = bank_config(3, /*ideal=*/false);
  noisy.process.charge.sa_offset_sigma = 0.5;
  std::vector<Sequence> reads = first(30);
  reads.insert(reads.end(), reads_.begin(), reads_.end());
  auto execute_all = [&](const AsmcapAccelerator& bank) {
    std::vector<QueryResult> out;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const ExecutionPlan plan = bank.planner().build(
          reads[i], 4, ErrorRates::condition_a(), StrategyMode::Full);
      out.push_back(bank.execute(plan, Rng(2309).fork(i)));
    }
    return out;
  };
  const auto mutate = [&](AsmcapAccelerator& bank) {
    std::vector<std::uint64_t> ids(20);
    for (std::uint64_t id = 0; id < ids.size(); ++id) ids[id] = id;
    bank.remove_segments(ids);
    bank.append_segments(std::vector<Sequence>(segments_.begin() + 30,
                                               segments_.begin() + 50));
  };
  AsmcapAccelerator original(noisy);
  original.load_reference(first(30));
  const std::vector<QueryResult> before = execute_all(original);
  const std::unique_ptr<AsmcapAccelerator> copy = original.clone();
  mutate(*copy);
  AsmcapAccelerator twin(noisy);
  twin.load_reference(first(30));
  mutate(twin);
  expect_same_results(execute_all(original), before);
  expect_same_results(execute_all(*copy), execute_all(twin));
  EXPECT_EQ(copy->directory().ids[0], 30u);
  EXPECT_EQ(original.directory().ids[0], 0u);
}

// The typed error taxonomy shared by the ASMCap banks, the router, and
// the EDAM comparator.
TEST_F(LiveDbTest, DbErrorKindsAreShared) {
  AsmcapAccelerator accel(bank_config(1));
  try {
    accel.execute(accel.planner().build(reads_[0], 4,
                                        ErrorRates::condition_a(),
                                        StrategyMode::Full),
                  Rng(2307));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::NotLoaded);
  }
  try {
    const PackedReadView view(reads_[0]);
    const std::vector<PassSpec> passes = {{&view, 0}};
    accel.run_passes(passes, 4, Rng(2307));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::NotLoaded);
  }
  accel.load_reference(first(8));
  try {
    accel.load_reference(first(8));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
  try {
    accel.remove_segments({});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::EmptyMutation);
  }

  ShardedAccelerator router(bank_config(1), 2);
  router.load_reference(first(8));
  try {
    router.remove_segments({99});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::UnknownSegment);
  }

  EdamConfig edam_config;
  edam_config.array_rows = 16;
  edam_config.array_cols = 64;
  edam_config.array_count = 1;
  EdamAccelerator edam(edam_config);
  edam.load_reference(first(8));
  try {
    edam.load_reference(first(8));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
}

// ---------------------------------------------------------------------
// In-place writes.

/// Waits, at most 30 s, until `flag` is set.
void wait_for(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

// With nothing pinned, every mutation writes the banks it touches in
// place — each keeps its object — and leaves them exactly as a twin
// router whose every mutation ran while a db() snapshot pinned its epoch,
// so that it cloned each bank it wrote: staging in and filling the hot
// bank, folds into one and into two cold banks, removes from three banks,
// and compact() recycling a tombstoned slot, on ideal and noisy banks.
TEST_F(LiveDbTest, UnpinnedMutationsWriteBanksInPlace) {
  for (const bool ideal : {true, false}) {
    SCOPED_TRACE(ideal ? "ideal" : "noisy");
    ShardedAccelerator router(in_place_config(ideal), 2);
    ShardedAccelerator twin(in_place_config(ideal), 2);
    router.load_reference(first(20));
    twin.load_reference(first(20));
    for (const InPlaceStep& step : in_place_steps(segments_)) {
      SCOPED_TRACE(step.what);
      const EpochState before = epoch_state(router);
      const EpochState twin_before = epoch_state(twin);
      step.run(router);
      {
        const std::shared_ptr<const DbEpoch> pin = twin.db();
        step.run(twin);
      }
      const EpochState after = epoch_state(router);
      const EpochState twin_after = epoch_state(twin);
      EXPECT_EQ(after.number, before.number + 1);
      for (const std::size_t s : step.written) {
        EXPECT_EQ(after.banks[s], before.banks[s]) << "bank " << s;
        EXPECT_FALSE(after.states[s] == before.states[s]) << "bank " << s;
        EXPECT_NE(twin_after.banks[s], twin_before.banks[s]) << "bank " << s;
      }
      ASSERT_EQ(after.banks.size(), twin_after.banks.size());
      EXPECT_EQ(after.id_space, twin_after.id_space);
      EXPECT_EQ(after.live, twin_after.live);
      for (std::size_t s = 0; s < after.banks.size(); ++s)
        EXPECT_TRUE(after.states[s] == twin_after.states[s])
            << "bank " << s;
      std::vector<QueryResult> got;
      std::vector<QueryResult> want;
      got.reserve(reads_.size());
      want.reserve(reads_.size());
      for (const Sequence& read : reads_) {
        got.push_back(router.search(read, 4, StrategyMode::Full));
        want.push_back(twin.search(read, 4, StrategyMode::Full));
      }
      expect_same_results(got, want);
    }
  }
}

// A db() snapshot or a live ticket pins its epoch: whatever the router
// publishes while it lives, every bank it pins stays bit-identical — slot
// ids, live bits, rows and load ledger — and each bank that a
// mutation writes while the pin lives is cloned first, whichever epoch it
// came from, so the new epoch holds a new object there. The ticket still
// returns its epoch's results.
TEST_F(LiveDbTest, PinsKeepTheirBanksBitIdentical) {
  for (const bool ticket_pin : {false, true})
    for (const bool ideal : {true, false}) {
      SCOPED_TRACE(testing::Message() << (ticket_pin ? "ticket" : "db()")
                                      << (ideal ? ", ideal" : ", noisy"));
      const std::vector<InPlaceStep> steps = in_place_steps(segments_);
      ShardedAccelerator quiet(in_place_config(ideal), 2);
      ShardedAccelerator router(in_place_config(ideal), 2);
      for (ShardedAccelerator* r : {&quiet, &router}) {
        r->load_reference(first(20));
        steps[0].run(*r);  // cold 0, cold 1 and a hot bank
      }
      const std::vector<QueryResult> expected =
          quiet.search_batch(reads_, 4, StrategyMode::Full, 2);

      std::atomic<bool> release{false};
      SearchService service(router);
      SearchService::Options options;
      options.workers = 2;
      options.on_complete = [&release](std::size_t, const QueryResult&) {
        wait_for(release);
      };
      std::shared_ptr<SearchTicket> ticket;
      std::shared_ptr<const DbEpoch> pinned = router.db();
      std::vector<const AsmcapAccelerator*> banks;
      std::vector<BankState> states;
      banks.reserve(pinned->banks.size());
      states.reserve(pinned->banks.size());
      for (const auto& bank : pinned->banks) {
        banks.push_back(bank.get());
        states.push_back(bank_state(*bank));
      }
      if (ticket_pin) {
        ticket = service.submit_borrowed(reads_, 4, StrategyMode::Full,
                                         options);
        pinned.reset();  // the ticket alone pins the epoch now
      }
      for (std::size_t i = 1; i < steps.size(); ++i) {
        SCOPED_TRACE(steps[i].what);
        const EpochState before = epoch_state(router);
        steps[i].run(router);
        const EpochState after = epoch_state(router);
        for (std::size_t b = 0; b < banks.size(); ++b)
          EXPECT_TRUE(bank_state(*banks[b]) == states[b])
              << "pinned bank " << b;
        for (const std::size_t s : steps[i].written)
          EXPECT_NE(after.banks[s], before.banks[s]) << "bank " << s;
      }
      release.store(true, std::memory_order_release);
      if (ticket) expect_same_results(ticket->drain(), expected);
    }
}

// A rejected mutation leaves the published epoch exactly as it was —
// number, bank objects, slot ids, live bits, rows and ledgers —
// for every DbErrorKind a router mutation throws and for a width
// mismatch; the bank-level DuplicateId leaves its bank as it was. The
// next valid mutation still writes in place.
TEST_F(LiveDbTest, RejectedMutationsLeaveThePublishedEpochUnchanged) {
  ShardedAccelerator router(in_place_config(false), 2);
  const auto expect_rejected = [&](const char* what,
                                   const std::function<void()>& mutate,
                                   std::optional<DbErrorKind> kind) {
    SCOPED_TRACE(what);
    const EpochState before = epoch_state(router);
    try {
      mutate();
      ADD_FAILURE() << "accepted";
    } catch (const DbError& error) {
      EXPECT_TRUE(kind == error.kind()) << "threw " << to_string(error.kind());
    } catch (const std::invalid_argument&) {
      EXPECT_FALSE(kind.has_value());
    }
    EXPECT_TRUE(epoch_state(router) == before);
  };
  expect_rejected("remove before a load",
                  [&] { router.remove_segments({0}); }, DbErrorKind::NotLoaded);
  expect_rejected("compact before a load", [&] { router.compact(); },
                  DbErrorKind::NotLoaded);
  router.load_reference(first(20));
  router.append_segments(first(3));  // ids 20-22 staged in the hot bank
  router.remove_segments({5});
  expect_rejected("a second load", [&] { router.load_reference(first(4)); },
                  DbErrorKind::AlreadyLoaded);
  expect_rejected(
      "past the cold capacity",
      [&] { router.append_segments(std::vector<Sequence>(43, segments_[0])); },
      DbErrorKind::CapacityExceeded);
  expect_rejected("an unknown id after a live one",
                  [&] { router.remove_segments({0, 21, 99}); },
                  DbErrorKind::UnknownSegment);
  expect_rejected("a dead id", [&] { router.remove_segments({3, 5}); },
                  DbErrorKind::DoubleDelete);
  expect_rejected("a repeated id",
                  [&] { router.remove_segments({2, 21, 2}); },
                  DbErrorKind::DoubleDelete);
  expect_rejected("no ids", [&] { router.remove_segments({}); },
                  DbErrorKind::EmptyMutation);
  Rng rng(2311);
  const std::vector<Sequence> narrow = {segments_[0],
                                        Sequence::random(63, rng)};
  expect_rejected("a width mismatch",
                  [&] { router.append_segments(narrow); }, std::nullopt);

  const AsmcapAccelerator* cold = &router.shard(0);
  router.remove_segments({0});
  EXPECT_EQ(&router.shard(0), cold);

  AsmcapAccelerator bank(bank_config(2, false));
  bank.load_reference(first(10));
  const BankState before = bank_state(bank);
  const std::vector<Sequence> rows = {segments_[10], segments_[11]};
  using Ids = std::vector<std::uint64_t>;
  for (const Ids& ids : {Ids{10, 4}, Ids{11, 11}}) {
    try {
      bank.append_segments(rows, ids);
      ADD_FAILURE() << "accepted id " << ids[1];
    } catch (const DbError& error) {
      EXPECT_EQ(error.kind(), DbErrorKind::DuplicateId);
    }
    EXPECT_TRUE(bank_state(bank) == before);
  }
}

// A ticket's last read resolves on a pool thread, and its pin drops there
// just before the control thread folds rows into the bank the ticket
// read, in the epoch it pinned, which is still the published one. Nothing
// else orders the two threads: the control thread never waits on the
// ticket, and learns that it is gone from a relaxed read of its use
// count. So writing the bank in place is race-free only because the
// append reads the router's pin count with acquire order, pairing with the
// release the pin made as it counted itself out; the thread-sanitize CI
// job runs this. (Seeing the ticket gone does not order the two reads, so
// an append may still read the count before the pin's release on a
// weakly ordered host and clone instead; the case retries until one
// writes in place.)
TEST_F(LiveDbTest, LastPinDroppedOnAPoolThreadBeforeAnAppend) {
  bool in_place = false;
  for (int attempt = 0; attempt < 10 && !in_place; ++attempt) {
    SCOPED_TRACE(testing::Message() << "attempt " << attempt);
    ShardedAccelerator quiet(in_place_config(true), 1);
    quiet.load_reference(first(20));
    const std::vector<QueryResult> expected =
        quiet.search_batch(reads_, 4, StrategyMode::Full, 2);

    ShardedAccelerator router(in_place_config(true), 1);
    router.load_reference(first(20));
    const AsmcapAccelerator* cold = &router.shard(0);
    std::mutex delivered;
    std::vector<QueryResult> got(reads_.size());
    SearchService service(router);
    SearchService::Options options;
    options.workers = 2;
    options.on_complete = [&](std::size_t i, const QueryResult& result) {
      const std::lock_guard<std::mutex> lock(delivered);
      got[i] = result;
    };
    std::weak_ptr<SearchTicket> watch =
        service.submit_borrowed(reads_, 4, StrategyMode::Full, options);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!watch.expired() && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    ASSERT_TRUE(watch.expired()) << "the ticket never finished";
    // 6 rows overflow the 4-row hot bank: 4 fold into the cold bank.
    router.append_segments(std::vector<Sequence>(segments_.begin() + 20,
                                                 segments_.begin() + 26));
    in_place = &router.shard(0) == cold;
    EXPECT_EQ(router.shard(0).live_segment_count(), 24u);
    const std::lock_guard<std::mutex> lock(delivered);
    expect_same_results(got, expected);
  }
  EXPECT_TRUE(in_place);
}

// ---------------------------------------------------------------------
// Randomized mutation histories.

/// One bank of RouterModel: the id and liveness of every allocated slot.
/// An id takes the lowest tombstoned slot, else a fresh one.
struct ModelBank {
  std::size_t capacity = 0;
  std::vector<std::uint64_t> ids;
  std::vector<bool> live;
  std::size_t live_count = 0;

  std::size_t room() const { return capacity - live_count; }
  void add(std::uint64_t id) {
    const auto dead = std::find(live.begin(), live.end(), false);
    if (dead == live.end()) {
      ids.push_back(id);
      live.push_back(true);
    } else {
      ids[static_cast<std::size_t>(dead - live.begin())] = id;
      *dead = true;
    }
    ++live_count;
  }
};

/// The router's placement rules, replayed one id at a time as
/// asmcap/sharded.h states them. load() splits ids 0.. into contiguous,
/// balanced blocks over min(shards, count) cold banks. An appended id
/// stages in the hot bank; an id that finds the hot bank full first folds
/// it: the hot bank's live ids, ascending, each into the first cold bank
/// with room (a new cold bank when none has), after which the hot bank,
/// tombstones and all, is gone and a fresh one starts. compact() folds
/// whatever is staged.
class RouterModel {
 public:
  RouterModel(std::size_t shards, std::size_t cold_capacity,
              std::size_t hot_capacity)
      : shards_(shards),
        cold_capacity_(cold_capacity),
        hot_capacity_(hot_capacity) {}

  void load(std::size_t count) {
    const std::size_t banks = std::min(shards_, count);
    for (std::size_t s = 0; s < banks; ++s) {
      cold_.push_back(ModelBank{cold_capacity_, {}, {}, 0});
      const std::size_t share = count / banks + (s < count % banks ? 1 : 0);
      for (std::size_t i = 0; i < share; ++i) cold_.back().add(next_id_++);
    }
  }

  std::vector<std::uint64_t> append(std::size_t count) {
    std::vector<std::uint64_t> ids;
    ids.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (hot_ && hot_->room() == 0) fold();
      if (!hot_) hot_ = ModelBank{hot_capacity_, {}, {}, 0};
      hot_->add(next_id_);
      ids.push_back(next_id_++);
    }
    return ids;
  }

  void remove(const std::vector<std::uint64_t>& ids) {
    const auto drop = [&](ModelBank& bank) {
      for (const std::uint64_t id : ids) {
        const auto it = std::find(bank.ids.begin(), bank.ids.end(), id);
        if (it == bank.ids.end()) continue;
        bank.live[static_cast<std::size_t>(it - bank.ids.begin())] = false;
        --bank.live_count;
      }
    };
    for (ModelBank& bank : cold_) drop(bank);
    if (hot_) drop(*hot_);
  }

  void compact() { fold(); }

  SegmentState state(std::uint64_t id) const {
    for (const ModelBank* bank : banks()) {
      const auto it = std::find(bank->ids.begin(), bank->ids.end(), id);
      if (it != bank->ids.end())
        return bank->live[static_cast<std::size_t>(it - bank->ids.begin())]
                   ? SegmentState::Live
                   : SegmentState::Dead;
    }
    return SegmentState::Unknown;
  }

  /// Cold banks in shard order, then the hot bank.
  std::vector<const ModelBank*> banks() const {
    std::vector<const ModelBank*> out;
    out.reserve(cold_.size() + 1);
    for (const ModelBank& bank : cold_) out.push_back(&bank);
    if (hot_) out.push_back(&*hot_);
    return out;
  }
  bool has_hot() const { return hot_.has_value(); }
  std::uint64_t next_id() const { return next_id_; }
  std::size_t live() const {
    std::size_t n = 0;
    for (const ModelBank* bank : banks()) n += bank->live_count;
    return n;
  }
  std::size_t room() const { return shards_ * cold_capacity_ - live(); }
  /// Live ids, ascending.
  std::vector<std::uint64_t> live_ids() const {
    std::vector<std::uint64_t> out;
    for (const ModelBank* bank : banks())
      for (std::size_t s = 0; s < bank->ids.size(); ++s)
        if (bank->live[s]) out.push_back(bank->ids[s]);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void fold() {
    if (!hot_) return;
    std::vector<std::uint64_t> staged;
    for (std::size_t s = 0; s < hot_->ids.size(); ++s)
      if (hot_->live[s]) staged.push_back(hot_->ids[s]);
    std::sort(staged.begin(), staged.end());
    hot_.reset();
    for (const std::uint64_t id : staged) {
      auto bank = std::find_if(cold_.begin(), cold_.end(),
                               [](const ModelBank& b) { return b.room() > 0; });
      if (bank == cold_.end()) {
        ASSERT_LT(cold_.size(), shards_) << "fold overflow in the model";
        cold_.push_back(ModelBank{cold_capacity_, {}, {}, 0});
        bank = cold_.end() - 1;
      }
      bank->add(id);
    }
  }

  std::size_t shards_;
  std::size_t cold_capacity_;
  std::size_t hot_capacity_;
  std::vector<ModelBank> cold_;
  std::optional<ModelBank> hot_;
  std::uint64_t next_id_ = 0;
};

/// What the router's merge (ShardedAccelerator::merge_subset) makes of
/// `plan` on every bank of `db` under `stream`, with pruning off: each
/// bank's slot-indexed matches scattered to global ids through its
/// directory, energy summed in ascending bank order, and the plan's pass
/// latency. Banks start at segment_base 0.
QueryResult merge_banks(const DbEpoch& db, const AsmcapConfig& config,
                        const ExecutionPlan& plan, const Rng& stream) {
  QueryResult merged;
  merged.decisions.assign(db.id_space, false);
  for (const auto& bank : db.banks) {
    const QueryResult part = bank->execute(plan, stream);
    for (const std::size_t slot : part.matched_segments) {
      const auto id = static_cast<std::size_t>(bank->directory().ids[slot]);
      merged.decisions[id] = true;
      merged.matched_segments.push_back(id);
    }
    merged.energy_joules += part.energy_joules;
  }
  std::sort(merged.matched_segments.begin(), merged.matched_segments.end());
  merged.latency_seconds = TimingModel(config.process)
                               .asmcap_query_latency(
                                   plan.summary.total_searches());
  return merged;
}

void expect_same_result(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.matched_segments, want.matched_segments);
  EXPECT_EQ(got.latency_seconds, want.latency_seconds);
  EXPECT_EQ(got.energy_joules, want.energy_joules);
}

/// Checks the router's current epoch against `model` bank for bank (slot
/// ids, live bits, and each live row against `rows`) and every id's
/// segment_state against the model's, and adds the epoch to `digest`.
void check_epoch(const ShardedAccelerator& router, const RouterModel& model,
                 const std::vector<Sequence>& rows, DecisionDigest& digest) {
  const std::shared_ptr<const DbEpoch> db = router.db();
  const std::vector<const ModelBank*> banks = model.banks();
  ASSERT_EQ(db->banks.size(), banks.size());
  EXPECT_EQ(db->has_hot, model.has_hot());
  EXPECT_EQ(db->id_space, model.next_id());
  EXPECT_EQ(db->live_count, model.live());
  digest.add_u64(db->number);
  digest.add(db->has_hot);
  digest.add_u64(db->id_space);
  digest.add_u64(db->banks.size());
  for (std::size_t b = 0; b < banks.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "bank " << b);
    const LiveDirectory& dir = db->banks[b]->directory();
    EXPECT_EQ(dir.ids, banks[b]->ids);
    ASSERT_EQ(dir.live.size(), dir.slots());
    digest.add_u64(dir.slots());
    for (std::size_t slot = 0; slot < dir.slots(); ++slot) {
      EXPECT_EQ(dir.live[slot], slot < banks[b]->live.size() &&
                                    banks[b]->live[slot]);
      digest.add_u64(dir.ids[slot]);
      digest.add(dir.live[slot]);
    }
    for (const auto& [id, row] : db->banks[b]->live_segments()) {
      EXPECT_EQ(row, rows[id]) << "id " << id;
      for (const std::uint64_t word : row.packed_words()) digest.add_u64(word);
    }
  }
  for (std::uint64_t id = 0; id < model.next_id() + 2; ++id)
    EXPECT_EQ(router.segment_state(id), model.state(id)) << "id " << id;
}

/// The router's banks decide every read exactly like one fresh bank
/// holding the surviving (id, row) pairs and nothing else, under the same
/// query streams.
void check_decisions(const ShardedAccelerator& router,
                     const RouterModel& model,
                     const std::vector<Sequence>& rows,
                     const std::vector<Sequence>& reads,
                     std::size_t threshold, const Rng& streams) {
  AsmcapConfig config = router.config();
  config.array_count *= router.shard_count();
  AsmcapAccelerator fresh(config);
  const std::vector<std::uint64_t> ids = model.live_ids();
  std::vector<Sequence> survivors;
  survivors.reserve(ids.size());
  for (const std::uint64_t id : ids) survivors.push_back(rows[id]);
  if (!ids.empty()) fresh.append_segments(survivors, ids);
  const std::shared_ptr<const DbEpoch> db = router.db();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const ExecutionPlan plan = router.controller().planner().build(
        reads[i], threshold, router.error_profile(), StrategyMode::Full);
    const Rng stream = streams.fork(i);
    std::vector<bool> expected(db->id_space, false);
    if (!ids.empty())
      for (const std::size_t slot : fresh.execute(plan, stream).matched_segments)
        expected[fresh.directory().ids[slot]] = true;
    EXPECT_EQ(merge_banks(*db, router.config(), plan, stream).decisions,
              expected)
        << "read " << i;
  }
}

/// A ticket submitted against one epoch and the results that epoch's
/// banks gave its reads at submission.
struct PinnedTicket {
  std::shared_ptr<SearchTicket> ticket;
  std::shared_ptr<const DbEpoch> epoch;
  std::vector<Sequence> reads;
  std::size_t threshold = 0;
  std::uint64_t number = 0;  ///< The router's ticket count at submission.
  std::vector<QueryResult> expected;
};

/// One random history of `steps` steps on a random small geometry.
void run_history(Rng& rng, std::size_t steps, DecisionDigest& digest) {
  static constexpr std::size_t kShardCounts[] = {1, 2, 4};
  const std::size_t shards = kShardCounts[rng.below(3)];
  AsmcapConfig config;
  config.array_cols = rng.below(2) == 0 ? 48 : 64;
  config.array_rows = rng.below(2) == 0 ? 8 : 16;
  config.array_count = rng.below(2) == 0 ? 3 : 5;
  config.ideal_sensing = rng.below(3) != 0;
  config.live.hot_array_rows = rng.below(2) == 0 ? 2 : 4;
  config.live.hot_array_count = 1 + rng.below(3);
  const std::size_t hot =
      config.live.hot_array_rows * config.live.hot_array_count;
  SCOPED_TRACE(testing::Message()
               << shards << " shards, " << config.array_rows << "x"
               << config.array_count << " cold, " << hot << " hot, "
               << config.array_cols << " cols, "
               << (config.ideal_sensing ? "ideal" : "noisy"));
  digest.add_u64(shards);
  digest.add_u64(config.array_cols * 1000 + config.capacity_segments());
  digest.add_u64(hot);

  ShardedAccelerator router(config, shards);
  RouterModel model(shards, config.capacity_segments(), hot);
  SearchService service(router);
  SearchService::Options options;
  options.workers = 2;
  std::uint64_t tickets = 0;
  std::vector<Sequence> rows;  // By global id.
  const auto new_rows = [&](std::size_t count) {
    const std::vector<std::uint64_t> live = model.live_ids();
    std::vector<Sequence> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(!live.empty() && rng.below(4) == 0
                        ? rows[live[rng.below(live.size())]]
                        : Sequence::random(config.array_cols, rng));
    return out;
  };
  // Reads a few substitutions from live rows, and one random read.
  const auto new_reads = [&]() {
    const std::vector<std::uint64_t> live = model.live_ids();
    std::vector<Sequence> out;
    for (std::size_t r = 0; r < 3 && !live.empty(); ++r) {
      Sequence read = rows[live[rng.below(live.size())]];
      for (std::uint64_t e = rng.below(5); e > 0; --e) {
        const std::uint64_t at = rng.below(read.size());
        read.set(at, base_from_code(static_cast<std::uint8_t>(rng.below(4))));
      }
      out.push_back(read);
    }
    out.push_back(Sequence::random(config.array_cols, rng));
    return out;
  };
  const auto expected_results = [&](const DbEpoch& db,
                                    const std::vector<Sequence>& reads,
                                    std::size_t threshold,
                                    std::uint64_t number) {
    // Read i of the router's k-th ticket runs on master.fork((k << 32) |
    // i), master = Rng(seed) while search() is never called.
    std::vector<QueryResult> out;
    out.reserve(reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i)
      out.push_back(merge_banks(
          db, config,
          router.controller().planner().build(
              reads[i], threshold, router.error_profile(),
              StrategyMode::Full),
          Rng(config.seed).fork((number << 32) | i)));
    return out;
  };

  // Start from a load or from a bootstrap append.
  const std::size_t first = 1 + rng.below(shards * config.capacity_segments() / 2);
  {
    std::vector<Sequence> initial = new_rows(first);
    rows.insert(rows.end(), initial.begin(), initial.end());
    if (rng.below(2) == 0) {
      router.load_reference(initial);
      model.load(first);
    } else {
      EXPECT_EQ(router.append_segments(initial), model.append(first));
    }
  }
  std::optional<PinnedTicket> pinned;
  for (std::size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const std::uint64_t op = rng.below(20);
    digest.add_u64(op);
    const std::vector<std::uint64_t> live = model.live_ids();
    if (op < 8 && model.room() != 0) {
      const std::size_t sizes[] = {1,       hot - 1,           hot,
                                   hot + 1, 2 * hot + 1,
                                   1 + rng.below(3 * hot)};
      const std::size_t count = std::min(sizes[rng.below(6)], model.room());
      std::vector<Sequence> batch = new_rows(count);
      rows.insert(rows.end(), batch.begin(), batch.end());
      EXPECT_EQ(router.append_segments(batch), model.append(count));
    } else if (op < 13 && !live.empty()) {
      // Live ids of one bank (the hot bank half the time it has any),
      // sometimes with a few from anywhere.
      const std::vector<const ModelBank*> banks = model.banks();
      const ModelBank* bank = banks[rng.below(banks.size())];
      if (model.has_hot() && banks.back()->live_count != 0 &&
          rng.below(2) == 0)
        bank = banks.back();
      std::vector<std::uint64_t> ids;
      for (std::size_t s = 0; s < bank->ids.size(); ++s)
        if (bank->live[s] && rng.below(3) == 0) ids.push_back(bank->ids[s]);
      for (std::uint64_t extra = rng.below(3); extra > 0; --extra)
        ids.push_back(live[rng.below(live.size())]);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      if (ids.empty()) ids.push_back(live[rng.below(live.size())]);
      for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[rng.below(i)]);
      router.remove_segments(ids);
      model.remove(ids);
    } else if (op < 14) {
      // A rejected remove publishes nothing: a live id repeated, a dead
      // id, or an id whose slot was recycled or that was never assigned.
      const std::uint64_t epoch = router.epoch();
      std::vector<std::uint64_t> ids;
      if (!live.empty()) ids.push_back(live[rng.below(live.size())]);
      std::uint64_t bad = ids.empty() ? model.next_id() : ids.front();
      if (ids.empty() || rng.below(2) == 0)
        do bad = rng.below(model.next_id() + 2);
        while (model.state(bad) == SegmentState::Live);
      ids.push_back(bad);
      const DbErrorKind want = model.state(bad) == SegmentState::Unknown
                                   ? DbErrorKind::UnknownSegment
                                   : DbErrorKind::DoubleDelete;
      try {
        router.remove_segments(ids);
        ADD_FAILURE() << "a remove of id " << bad << " was accepted";
      } catch (const DbError& error) {
        EXPECT_EQ(error.kind(), want) << "id " << bad;
      }
      EXPECT_EQ(router.epoch(), epoch);
    } else if (op < 16) {
      router.compact();
      model.compact();
    } else if (op < 18) {
      const std::vector<Sequence> reads = new_reads();
      const std::size_t threshold = rng.below(2) == 0 ? 1 : 4;
      const std::vector<QueryResult> expected = expected_results(
          *router.db(), reads, threshold, ++tickets);
      const std::vector<QueryResult> got =
          service.submit_borrowed(reads, threshold, StrategyMode::Full,
                                  options)
              ->drain();
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "read " << i);
        expect_same_result(got[i], expected[i]);
      }
    } else if (!pinned) {
      pinned.emplace();
      pinned->epoch = router.db();
      pinned->reads = new_reads();
      pinned->threshold = rng.below(2) == 0 ? 1 : 4;
      pinned->number = ++tickets;
      pinned->expected = expected_results(*pinned->epoch, pinned->reads,
                                          pinned->threshold, pinned->number);
      pinned->ticket = service.submit(pinned->reads, pinned->threshold,
                                      StrategyMode::Full, options);
    } else {
      pinned->ticket->wait();
      for (std::size_t i = 0; i < pinned->reads.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "pinned read " << i);
        expect_same_result(pinned->ticket->result(i), pinned->expected[i]);
      }
      pinned.reset();
    }

    check_epoch(router, model, rows, digest);
    const std::vector<Sequence> reads = new_reads();
    const std::size_t threshold = rng.below(2) == 0 ? 1 : 4;
    check_decisions(router, model, rows, reads, threshold, Rng(rng.next()));
    if (pinned) {
      // Whatever published since, the pinned epoch's banks still decide
      // its reads as they did when it was pinned.
      const std::vector<QueryResult> again =
          expected_results(*pinned->epoch, pinned->reads, pinned->threshold,
                           pinned->number);
      for (std::size_t i = 0; i < again.size(); ++i)
        expect_same_result(again[i], pinned->expected[i]);
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  if (pinned) {
    pinned->ticket->wait();
    for (std::size_t i = 0; i < pinned->reads.size(); ++i)
      expect_same_result(pinned->ticket->result(i), pinned->expected[i]);
  }
}

// Digest of every epoch (slot ids, live bits, rows) over the first
// repetition's histories. Each --gtest_repeat repetition continues the
// seeded stream, so a longer run covers new histories; only the first is
// compared with the digest.
constexpr std::uint64_t kPinnedHistoryDigest = 0x13e0ff8850b2ded0;
constexpr std::size_t kHistoriesPerRepetition = 12;
constexpr std::size_t kStepsPerHistory = 50;

// Random append / remove / compact / search histories, each checked after
// every step against the placement model, a fresh bank of the survivors
// and any ticket pinning an older epoch. Append sizes hit the hot bank's
// edges (1, H - 1, H, H + 1, 2H + 1) as well as random ones; removes hit
// hot and cold banks.
TEST(MutationHistory, RandomHistoriesMatchTheModel) {
  static Rng rng(0x4157'0A11'5EED);
  static std::size_t repetition = 0;
  const std::size_t this_repetition = repetition++;
  DecisionDigest digest;
  for (std::size_t h = 0; h < kHistoriesPerRepetition; ++h) {
    SCOPED_TRACE(testing::Message()
                 << "repetition " << this_repetition << " history " << h);
    run_history(rng, kStepsPerHistory, digest);
    if (HasFatalFailure()) return;
  }
  if (this_repetition == 0) {
    EXPECT_EQ(digest.value(), kPinnedHistoryDigest)
        << std::hex << "history digest 0x" << digest.value();
  }
}

// The same rows appended in one call or in random splits leave identical
// banks — slot ids, live bits and rows — after a random prefix history
// with tombstones in hot and cold banks, and again after a compact().
TEST(MutationHistory, SplitAppendsLeaveIdenticalBanks) {
  Rng rng(0x5B11'7A99);
  const auto same_banks = [](const ShardedAccelerator& a,
                             const ShardedAccelerator& b) {
    ASSERT_EQ(a.active_shards(), b.active_shards());
    EXPECT_EQ(a.db()->has_hot, b.db()->has_hot);
    EXPECT_EQ(a.db()->id_space, b.db()->id_space);
    EXPECT_EQ(a.db()->live_count, b.db()->live_count);
    for (std::size_t s = 0; s < a.active_shards(); ++s) {
      EXPECT_EQ(a.shard(s).directory().ids, b.shard(s).directory().ids);
      EXPECT_EQ(a.shard(s).directory().live, b.shard(s).directory().live);
      EXPECT_EQ(a.shard(s).live_segments(), b.shard(s).live_segments());
    }
  };
  for (std::size_t trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    AsmcapConfig config = bank_config(2 + rng.below(3));
    config.array_rows = 8;
    config.live.hot_array_rows = 2 + rng.below(3);
    config.live.hot_array_count = 1 + rng.below(2);
    const std::size_t shards = 1 + rng.below(3);
    const std::size_t hot =
        config.live.hot_array_rows * config.live.hot_array_count;
    ShardedAccelerator one(config, shards);
    ShardedAccelerator split(config, shards);
    // The prefix: both routers take the same random mutations.
    const std::size_t capacity = one.capacity_segments();
    std::vector<Sequence> initial;
    for (std::uint64_t n = 1 + rng.below(capacity / 3); n > 0; --n)
      initial.push_back(Sequence::random(config.array_cols, rng));
    for (ShardedAccelerator* router : {&one, &split})
      router->append_segments(initial);
    for (std::uint64_t m = rng.below(6); m > 0; --m) {
      std::vector<std::uint64_t> ids;
      for (const auto& entry : one.live_segments())
        if (rng.below(4) == 0) ids.push_back(entry.first);
      if (!ids.empty() && rng.below(3) != 0) {
        for (ShardedAccelerator* router : {&one, &split})
          router->remove_segments(ids);
      } else {
        std::vector<Sequence> more;
        const std::size_t room = capacity - one.live_segment_count();
        for (std::uint64_t n = std::min<std::uint64_t>(room, rng.below(hot * 2));
             n > 0; --n)
          more.push_back(Sequence::random(config.array_cols, rng));
        for (ShardedAccelerator* router : {&one, &split})
          router->append_segments(more);
      }
    }
    // The rows under test: one call against 1-4 random pieces.
    const std::size_t room = capacity - one.live_segment_count();
    if (room == 0) continue;
    std::vector<Sequence> batch;
    for (std::uint64_t n = 1 + rng.below(std::min(room, 3 * hot + 2)); n > 0;
         --n)
      batch.push_back(Sequence::random(config.array_cols, rng));
    one.append_segments(batch);
    for (std::size_t at = 0; at < batch.size();) {
      const std::size_t piece = 1 + rng.below(batch.size() - at);
      split.append_segments(std::vector<Sequence>(
          batch.begin() + static_cast<std::ptrdiff_t>(at),
          batch.begin() + static_cast<std::ptrdiff_t>(at + piece)));
      at += piece;
    }
    same_banks(one, split);
    one.compact();
    split.compact();
    same_banks(one, split);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace asmcap
