// Tests of the streaming search service: submit/poll/drain equivalence
// with the synchronous search_batch path (bit-identical decisions, energy,
// latency, and ledger on both backend kinds, noisy circuit included),
// out-of-order completion with the in-order re-sequencer, drain-under-load,
// admission throttling with more in-flight reads than pool threads, block
// grants over every pool width, window and ticket size, callback error
// propagation, and the streaming read mapper built on top.
// The single-shard no-staging path is pinned against a bank's execute()
// by test_sharded's SingleShardBitIdenticalToMonolithicNoisy.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "asmcap/readmapper.h"
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

void expect_identical(const std::vector<QueryResult>& a,
                      const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions) << "read " << i;
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments) << "read " << i;
    EXPECT_EQ(a[i].energy_joules, b[i].energy_joules) << "read " << i;
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds) << "read " << i;
    EXPECT_EQ(a[i].plan.total_searches(), b[i].plan.total_searches());
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

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2301);
    reference_ = generate_reference(64 * 40 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(40);

    Rng read_rng(2302);
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

  /// A freshly loaded router (twin construction: two calls with the same
  /// arguments produce bit-identical systems — same seed, same silicon).
  std::unique_ptr<ShardedAccelerator> make_router(std::size_t shards,
                                                  bool ideal,
                                                  BackendKind backend) {
    auto router =
        std::make_unique<ShardedAccelerator>(bank_config(4, ideal), shards);
    router->load_reference(segments_);
    router->set_backend(backend);
    return router;
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// ------------------------------------------------ sync/async equivalence --

TEST_F(ServiceTest, DrainBitIdenticalToSynchronousOnBothBackends) {
  // The core contract: submit + drain must equal search_batch bit-for-bit
  // — decisions, ids, energy, latency, AND ledger totals — on the noisy
  // circuit path and on the functional path, for a multi-shard router.
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  for (const Case c : {Case{false, BackendKind::Circuit},
                       Case{true, BackendKind::Circuit},
                       Case{false, BackendKind::Functional}}) {
    auto sync = make_router(3, c.ideal, c.backend);
    auto async = make_router(3, c.ideal, c.backend);
    const auto expected = sync->search_batch(reads_, 4, StrategyMode::Full, 3);

    SearchService service(*async);
    SearchService::Options options;
    options.workers = 3;
    auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
    const auto got = ticket->drain();

    expect_identical(got, expected);
    expect_same_totals(async->totals(), sync->totals());
  }
}

TEST_F(ServiceTest, PollingSeesEveryReadAndMatchesSynchronous) {
  auto sync = make_router(2, true, BackendKind::Functional);
  auto async = make_router(2, true, BackendKind::Functional);
  const auto expected = sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  ASSERT_EQ(ticket->size(), reads_.size());

  // Poll until everything has merged, then read results per index.
  while (!ticket->done()) std::this_thread::yield();
  EXPECT_EQ(ticket->completed(), reads_.size());
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    ASSERT_TRUE(ticket->ready(i));
    EXPECT_EQ(ticket->result(i).decisions, expected[i].decisions);
  }
  ticket->wait();  // flush the ledger
  expect_same_totals(async->totals(), sync->totals());
}

// ------------------------------------------------------------- streaming --

TEST_F(ServiceTest, StreamingDeliversEveryReadExactlyOnce) {
  auto sync = make_router(3, true, BackendKind::Circuit);
  auto async = make_router(3, true, BackendKind::Circuit);
  const auto expected = sync->search_batch(reads_, 4, StrategyMode::Full, 3);

  std::vector<std::atomic<int>> delivered(reads_.size());
  std::vector<std::vector<std::size_t>> matched(reads_.size());
  std::mutex matched_mutex;

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 3;
  options.keep_results = false;  // pure streaming: results released on emit
  options.on_complete = [&](std::size_t i, const QueryResult& result) {
    ++delivered[i];
    std::lock_guard<std::mutex> lock(matched_mutex);
    matched[i] = result.matched_segments;
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  ticket->wait();

  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(delivered[i].load(), 1) << "read " << i;
    EXPECT_EQ(matched[i], expected[i].matched_segments) << "read " << i;
  }
  // Released results are gone: polling access and drain() both refuse.
  EXPECT_THROW(ticket->result(0), std::logic_error);
  EXPECT_THROW(ticket->drain(), std::logic_error);
  // ... but the ledger still recorded the full submission in read order.
  expect_same_totals(async->totals(), sync->totals());
}

TEST_F(ServiceTest, ResequencerDeliversInReadOrder) {
  auto sync = make_router(3, true, BackendKind::Functional);
  auto async = make_router(3, true, BackendKind::Functional);
  const auto expected = sync->search_batch(reads_, 4, StrategyMode::Full, 4);

  std::vector<std::size_t> order;
  std::vector<std::vector<std::size_t>> matched(reads_.size());
  SearchService service(*async);
  SearchService::Options options;
  options.workers = 4;
  options.in_order = true;  // re-sequencer: delivery serialised, in order
  options.on_complete = [&](std::size_t i, const QueryResult& result) {
    order.push_back(i);  // serialised by the re-sequencer lock
    matched[i] = result.matched_segments;
  };
  service.submit(reads_, 4, StrategyMode::Full, options)->wait();

  ASSERT_EQ(order.size(), reads_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(matched[i], expected[i].matched_segments);
  }
}

TEST_F(ServiceTest, CallbackExceptionSurfacesAtWaitButLedgerIsKept) {
  // Every read executed (and burned real energy) before the consumer
  // callback failed: wait() must rethrow AND still record the full
  // submission — matching a twin whose consumer did not fail.
  auto sync = make_router(2, true, BackendKind::Functional);
  auto async = make_router(2, true, BackendKind::Functional);
  sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  std::atomic<int> calls{0};
  options.on_complete = [&](std::size_t, const QueryResult&) {
    if (++calls == 3) throw std::runtime_error("consumer boom");
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  EXPECT_THROW(ticket->wait(), std::runtime_error);
  expect_same_totals(async->totals(), sync->totals());
}

TEST_F(ServiceTest, InOrderStreamingStaysWithinAdmissionWindow) {
  // With the re-sequencer, a read returns its admission slot only when
  // DELIVERED, so merged-but-held results also count against the window:
  // peak_in_flight stays bounded even when completion order scrambles.
  std::vector<Sequence> load;
  for (int rep = 0; rep < 4; ++rep)
    load.insert(load.end(), reads_.begin(), reads_.end());

  auto router = make_router(3, true, BackendKind::Functional);
  SearchService service(*router);
  SearchService::Options options;
  options.workers = 3;
  options.max_in_flight = 3;
  options.in_order = true;
  options.keep_results = false;
  std::vector<std::size_t> order;
  options.on_complete = [&](std::size_t i, const QueryResult&) {
    order.push_back(i);
  };
  auto ticket = service.submit_borrowed(load, 4, StrategyMode::Full,
                                        options);
  ticket->wait();
  ASSERT_EQ(order.size(), load.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_LE(ticket->peak_in_flight(), 3u);
  EXPECT_THROW(ticket->result(0), std::logic_error);
}

// -------------------------------------------------------- load / throttle --

TEST_F(ServiceTest, DrainUnderLoadWithMoreReadsThanThreads) {
  // A submission several times the pool width, drained immediately while
  // everything is still in flight: all reads arrive, in order, identical
  // to the synchronous run, and the admission window bounds the staging
  // memory (peak in-flight < total reads).
  std::vector<Sequence> load;
  for (int rep = 0; rep < 5; ++rep)
    load.insert(load.end(), reads_.begin(), reads_.end());

  auto sync = make_router(3, true, BackendKind::Functional);
  auto async = make_router(3, true, BackendKind::Functional);
  const auto expected = sync->search_batch(load, 4, StrategyMode::Full, 3);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 3;
  options.max_in_flight = 4;
  auto ticket = service.submit(load, 4, StrategyMode::Full, options);
  const auto got = ticket->drain();

  expect_identical(got, expected);
  EXPECT_EQ(ticket->completed(), load.size());
  EXPECT_EQ(ticket->max_in_flight(), 4u);
  EXPECT_GE(ticket->peak_in_flight(), 1u);
  EXPECT_LE(ticket->peak_in_flight(), 4u);
  EXPECT_LT(ticket->peak_in_flight(), load.size());
}

TEST_F(ServiceTest, ThrottleDefaultsToTwicePoolWidthAndStaysBounded) {
  // The default window is two blocks per worker: 2 x pool width x
  // kServiceBlockReads reads. A submission larger than that stays within
  // it.
  std::vector<Sequence> load;
  for (int rep = 0; rep < 3; ++rep)
    load.insert(load.end(), reads_.begin(), reads_.end());
  auto router = make_router(7, true, BackendKind::Functional);
  SearchService service(*router);
  SearchService::Options options;
  options.workers = 2;
  auto ticket = service.submit(load, 4, StrategyMode::Full, options);
  ticket->wait();
  EXPECT_EQ(ticket->max_in_flight(), 2 * options.workers * kServiceBlockReads);
  EXPECT_LE(ticket->peak_in_flight(), ticket->max_in_flight());
}

TEST_F(ServiceTest, BlockGrantsBitIdenticalForAnyWorkersWindowAndSize) {
  // A grant claims a block of consecutive reads that runs as one pool
  // task; how reads are grouped never changes what they compute. For
  // every pool width, ticket window and ticket size (one read, part of a
  // block, several blocks with a short tail), with an unbounded and a
  // tight global budget, the service equals search_batch bit for bit on
  // noisy circuit sensing, ledger included, and peak_in_flight stays
  // within both the ticket window and the global budget.
  std::vector<Sequence> load;
  while (load.size() < 40) load.push_back(reads_[load.size() % reads_.size()]);
  for (const std::size_t size : {1, 7, 40}) {
    const std::vector<Sequence> batch(load.begin(),
                                      load.begin() + static_cast<long>(size));
    auto sync = make_router(3, false, BackendKind::Circuit);
    const auto expected = sync->search_batch(batch, 4, StrategyMode::Full, 1);
    for (const std::size_t workers : {1, 2, 4})
      for (const std::size_t window : {1, 3, 0})
        for (const std::size_t budget : {0, 5}) {
          SCOPED_TRACE(::testing::Message()
                       << "size " << size << " workers " << workers
                       << " window " << window << " budget " << budget);
          auto async = make_router(3, false, BackendKind::Circuit);
          SearchService::Config config;
          config.max_in_flight_reads = budget;
          SearchService service(*async, config);
          SearchService::Options options;
          options.workers = workers;
          options.max_in_flight = window;
          auto ticket = service.submit_borrowed(batch, 4, StrategyMode::Full,
                                                options);
          expect_identical(ticket->drain(), expected);
          expect_same_totals(async->totals(), sync->totals());
          EXPECT_LE(ticket->peak_in_flight(), ticket->max_in_flight());
          if (budget != 0) {
            EXPECT_LE(ticket->peak_in_flight(), budget);
          }
        }
  }
}

TEST_F(ServiceTest, BorrowedSubmissionMatchesOwning) {
  auto sync = make_router(3, true, BackendKind::Functional);
  auto async = make_router(3, true, BackendKind::Functional);
  const auto expected = sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  auto ticket = service.submit_borrowed(reads_, 4, StrategyMode::Full,
                                        options);
  expect_identical(ticket->drain(), expected);
  expect_same_totals(async->totals(), sync->totals());
}

TEST_F(ServiceTest, PureFollowerWithoutCallbackReleasesResults) {
  // keep_results == false with no callback: the service still completes
  // and records the ledger, and every merged result is released on merge
  // (result() refuses, drain() refuses).
  auto sync = make_router(2, true, BackendKind::Functional);
  auto async = make_router(2, true, BackendKind::Functional);
  sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  options.keep_results = false;
  auto ticket = service.submit_borrowed(reads_, 4, StrategyMode::Full,
                                        options);
  ticket->wait();
  EXPECT_TRUE(ticket->done());
  EXPECT_THROW(ticket->result(0), std::logic_error);
  EXPECT_THROW(ticket->drain(), std::logic_error);
  expect_same_totals(async->totals(), sync->totals());
}

TEST_F(ServiceTest, PoolGrowthClampedWhileTicketsInFlight) {
  // A wider second submission while the first is in flight must not
  // replace (and so destroy) the pool under the first ticket: the width
  // is clamped to the live pool, and both tickets stay correct.
  auto sync = make_router(3, true, BackendKind::Functional);
  auto async = make_router(3, true, BackendKind::Functional);
  const auto expected_a = sync->search_batch(reads_, 4, StrategyMode::Full, 2);
  const auto expected_b = sync->search_batch(reads_, 4, StrategyMode::Full, 6);

  SearchService service(*async);
  SearchService::Options narrow;
  narrow.workers = 2;
  SearchService::Options wide;
  wide.workers = 6;
  auto ticket_a = service.submit_borrowed(reads_, 4, StrategyMode::Full,
                                          narrow);
  auto ticket_b = service.submit_borrowed(reads_, 4, StrategyMode::Full,
                                          wide);
  expect_identical(ticket_a->drain(), expected_a);
  expect_identical(ticket_b->drain(), expected_b);
  expect_same_totals(async->totals(), sync->totals());
}

TEST_F(ServiceTest, SequentialSearchInterleavedWithInFlightTicket) {
  // The control thread may run a sequential search while a ticket is in
  // flight: the ticket forks from a submit-time RNG snapshot and a wider
  // interleaved search cannot replace the pool (growth clamp), so both
  // the search and the ticket match a twin that ran them back to back.
  auto sync = make_router(3, false, BackendKind::Circuit);
  auto async = make_router(3, false, BackendKind::Circuit);
  const auto expected_batch =
      sync->search_batch(reads_, 4, StrategyMode::Full, 2);
  const QueryResult expected_search =
      sync->search(reads_[0], 4, StrategyMode::Full, 8);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  auto ticket = service.submit_borrowed(reads_, 4, StrategyMode::Full,
                                        options);
  // While the ticket executes: a sequential search asking for MORE
  // workers than the live pool has (exercises the growth clamp).
  const QueryResult got_search = async->search(reads_[0], 4,
                                               StrategyMode::Full, 8);
  expect_identical(ticket->drain(), expected_batch);
  EXPECT_EQ(got_search.decisions, expected_search.decisions);
  EXPECT_EQ(got_search.energy_joules, expected_search.energy_joules);
}

TEST_F(ServiceTest, ConcurrentTicketsOnOneRouter) {
  // Two submissions in flight at once from the control thread, drained in
  // order: equals two sequential synchronous batches (same epoch
  // sequence, same ledger order).
  const std::vector<Sequence> first(reads_.begin(), reads_.begin() + 12);
  const std::vector<Sequence> second(reads_.begin() + 12, reads_.end());

  auto sync = make_router(3, true, BackendKind::Functional);
  auto async = make_router(3, true, BackendKind::Functional);
  const auto expected_a = sync->search_batch(first, 4, StrategyMode::Full, 2);
  const auto expected_b = sync->search_batch(second, 4, StrategyMode::Full, 2);

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  auto ticket_a = service.submit(first, 4, StrategyMode::Full, options);
  auto ticket_b = service.submit(second, 4, StrategyMode::Full, options);
  expect_identical(ticket_a->drain(), expected_a);
  expect_identical(ticket_b->drain(), expected_b);
  expect_same_totals(async->totals(), sync->totals());
}

// ------------------------------------------------------------ edge cases --

TEST_F(ServiceTest, EmptySubmissionIsImmediatelyDone) {
  auto sync = make_router(2, true, BackendKind::Functional);
  auto async = make_router(2, true, BackendKind::Functional);
  SearchService service(*async);
  auto ticket = service.submit({}, 4, StrategyMode::Full);
  EXPECT_TRUE(ticket->done());
  EXPECT_EQ(ticket->size(), 0u);
  ticket->wait();
  EXPECT_TRUE(ticket->drain().empty());
  // An empty submission leaves the batch epoch untouched, like the
  // synchronous path: the next real batch matches a twin's first batch.
  expect_identical(async->search_batch(reads_, 4, StrategyMode::Full, 2),
                   sync->search_batch(reads_, 4, StrategyMode::Full, 2));
}

TEST_F(ServiceTest, Validation) {
  ShardedAccelerator unloaded(bank_config(4), 2);
  SearchService bad(unloaded);
  EXPECT_THROW(bad.submit(reads_, 4, StrategyMode::Full), std::logic_error);

  auto router = make_router(2, true, BackendKind::Functional);
  SearchService service(*router);
  Rng rng(2303);
  std::vector<Sequence> narrow{Sequence::random(32, rng)};
  EXPECT_THROW(service.submit(narrow, 4, StrategyMode::Full),
               std::invalid_argument);

  auto ticket = service.submit(reads_, 4, StrategyMode::Full);
  EXPECT_THROW(ticket->ready(reads_.size()), std::out_of_range);
  ticket->drain();
  EXPECT_THROW(ticket->drain(), std::logic_error);  // already drained
  EXPECT_THROW(ticket->result(0), std::logic_error);
}

// ---------------------------------------------------- streaming mapper ----

TEST_F(ServiceTest, StreamingMapperMatchesPreviousBatchSemantics) {
  // map_batch now verifies each read as it streams out of the service;
  // results and cumulative stats must stay exactly what the drain-then-
  // verify implementation produced (worker-count invariant, too).
  std::vector<std::vector<MappedRead>> runs;
  std::vector<MappingStats> stats;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ReadMapper mapper(bank_config(4), segments_, 64, 3);
    std::vector<MappedRead> mapped;
    stats.push_back(
        mapper.map_batch(reads_, 4, StrategyMode::Full, &mapped, workers));
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
  EXPECT_EQ(stats[0].reads, reads_.size());
}

}  // namespace
}  // namespace asmcap
