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
//    never change decisions;
//  * probe consistency — shard pruning stays decision-neutral across
//    mutations;
//  * lazy circuit state — a functional bank switched to the circuit
//    backend decides exactly like one that was Circuit from birth;
//  * clone isolation — mutating a clone never leaks into its original.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "asmcap/db_error.h"
#include "asmcap/edam.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
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
  EXPECT_TRUE(accel.identity_layout());
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
  EXPECT_FALSE(accel.identity_layout());
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
    accel.append_segments({segments_[42]}, {5});  // Id 5 is still live.
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

// A functional bank holds no circuit state; switching it to the circuit
// backend builds every live row's silicon from its per-id stream. That
// must be indistinguishable from a bank that was Circuit from birth with
// the same history — decisions, match ids, latency, energy, and ledger
// totals, under noisy sensing — through hot-bank overflow, deletes,
// tombstone-slot recycling, and compaction, and on a clone too.
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

}  // namespace
}  // namespace asmcap
