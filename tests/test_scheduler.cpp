// Property/stress suite of the service tier's scheduler: priority classes
// with weighted fair-share admission, the global in-flight budget, the
// bounded pending queue (blocking submit and fail-fast try_submit),
// cooperative cancellation and deadlines under an injectable virtual
// clock (between grants and between the reads of one block), and
// per-ticket latency/energy statistics.
//
// The load-bearing property, asserted throughout: NO scheduling policy —
// priorities shuffled, cancels raced mid-flight, deadlines expiring under
// load, max_in_flight < reads < threads — may change what a COMPLETED
// read computes. Every Done read's decisions, match ids, latency, and
// energy must be bit-identical to the plain FIFO search_batch path on
// every backend (noisy circuit sensing included), and the ledger must
// book exactly the Done reads — cancelled work books no phantom energy.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "util/clock.h"
#include "util/stats.h"
#include "worker_gates.h"

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

void expect_read_equal(const QueryResult& got, const QueryResult& want,
                       std::size_t index) {
  EXPECT_EQ(got.decisions, want.decisions) << "read " << index;
  EXPECT_EQ(got.matched_segments, want.matched_segments) << "read " << index;
  EXPECT_EQ(got.energy_joules, want.energy_joules) << "read " << index;
  EXPECT_EQ(got.latency_seconds, want.latency_seconds) << "read " << index;
  EXPECT_EQ(got.plan.total_searches(), want.plan.total_searches())
      << "read " << index;
}

/// Holds a delivery, at most 30 s, until `flag` is set. The cancel and
/// deadline cases hold every delivery that must not overtake the cancel
/// or the clock advance: a held delivery keeps its block from retiring,
/// so the window cannot move on, and no read past it is granted, while
/// the triggering callback waits (for the ticket's handle, say).
void hold_until(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

void expect_identical(const std::vector<QueryResult>& got,
                      const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_read_equal(got[i], want[i], i);
}

class SchedulerTest : public ::testing::Test {
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

  std::vector<Sequence> prefix(std::size_t n) const {
    return std::vector<Sequence>(reads_.begin(),
                                 reads_.begin() + static_cast<long>(n));
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// --------------------------------------------- FIFO bit-identity under mix

TEST_F(SchedulerTest, MixedPriorityTicketsBitIdenticalToFifoOnEveryBackend) {
  // Two concurrent tickets — a Bulk batch and an Interactive batch —
  // contending for a deliberately tight global budget must produce, read
  // for read, exactly what two sequential FIFO search_batch calls
  // produce, on the ideal circuit, the NOISY circuit, and the functional
  // backend; the ledger must agree too.
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  for (const Case c : {Case{true, BackendKind::Circuit},
                       Case{false, BackendKind::Circuit},
                       Case{true, BackendKind::Functional}}) {
    auto sync = make_router(3, c.ideal, c.backend);
    auto async = make_router(3, c.ideal, c.backend);
    const std::vector<Sequence> interactive = prefix(8);
    const auto fifo_bulk =
        sync->search_batch(reads_, 4, StrategyMode::Full, 3);
    const auto fifo_interactive =
        sync->search_batch(interactive, 4, StrategyMode::Full, 3);

    SearchService::Config config;
    config.max_in_flight_reads = 3;  // force real inter-ticket contention
    SearchService service(*async, config);
    SearchService::Options bulk_options;
    bulk_options.workers = 3;
    bulk_options.service_class = ServiceClass::Bulk;
    SearchService::Options interactive_options;
    interactive_options.workers = 3;
    interactive_options.service_class = ServiceClass::Interactive;

    auto bulk = service.submit(reads_, 4, StrategyMode::Full, bulk_options);
    auto quick =
        service.submit(interactive, 4, StrategyMode::Full, interactive_options);
    bulk->wait();  // submission order — the synchronous ledger flush order
    quick->wait();

    EXPECT_EQ(bulk->state(), TicketState::Done);
    EXPECT_EQ(quick->state(), TicketState::Done);
    expect_identical(bulk->drain(), fifo_bulk);
    expect_identical(quick->drain(), fifo_interactive);

    const ExecutionTotals a = async->totals();
    const ExecutionTotals b = sync->totals();
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.searches, b.searches);
    EXPECT_EQ(a.latency_seconds, b.latency_seconds);
    EXPECT_EQ(a.energy_joules, b.energy_joules);
  }
}

// ---------------------------------------------------- priority admission

TEST_F(SchedulerTest, InteractiveGrantsOvertakeBulkBacklog) {
  // Block every worker so both tickets are enlisted before any read
  // executes; grants then interleave purely by scheduler policy
  // (global budget 1 serialises them through retires), deterministically.
  auto async = make_router(1, true, BackendKind::Functional);
  ThreadPool& pool = async->worker_pool(2);
  auto gates = std::make_unique<WorkerGates>(pool);

  SearchService::Config config;
  config.max_in_flight_reads = 1;
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  options.max_in_flight = 24;
  options.service_class = ServiceClass::Bulk;
  auto bulk = service.submit(reads_, 4, StrategyMode::Full, options);
  options.service_class = ServiceClass::Interactive;
  const std::vector<Sequence> quick_reads = prefix(4);
  auto quick = service.submit(quick_reads, 4, StrategyMode::Full, options);
  gates.reset();
  bulk->wait();
  quick->wait();

  EXPECT_EQ(bulk->state(), TicketState::Done);
  EXPECT_EQ(quick->state(), TicketState::Done);
  // No priority inversion: with weights 16:1, at most a couple of bulk
  // grants may precede the last interactive grant (the one admitted
  // before the interactive ticket arrived, plus one fair-share turn).
  std::uint64_t last_interactive = 0;
  for (const ReadTiming& t : quick->read_timings())
    last_interactive = std::max(last_interactive, t.admit_seq);
  std::size_t bulk_before = 0;
  for (const ReadTiming& t : bulk->read_timings())
    if (t.admit_seq != 0 && t.admit_seq < last_interactive) ++bulk_before;
  EXPECT_LE(bulk_before, 3u);
}

TEST_F(SchedulerTest, FairShareFollowsWeightsWithoutStarvation) {
  // Same deterministic setup, custom weights Interactive:Bulk = 3:1.
  // Grants must interleave roughly 3:1 — neither class starves — and
  // both tickets complete every read.
  auto async = make_router(1, true, BackendKind::Functional);
  ThreadPool& pool = async->worker_pool(2);
  auto gates = std::make_unique<WorkerGates>(pool);

  SearchService::Config config;
  config.max_in_flight_reads = 1;
  config.class_weights = {3, 4, 1};
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  options.max_in_flight = 24;
  options.service_class = ServiceClass::Bulk;
  auto bulk = service.submit(reads_, 4, StrategyMode::Full, options);
  options.service_class = ServiceClass::Interactive;
  auto quick = service.submit(reads_, 4, StrategyMode::Full, options);
  gates.reset();
  bulk->wait();
  quick->wait();

  EXPECT_EQ(bulk->state(), TicketState::Done);   // starvation freedom
  EXPECT_EQ(quick->state(), TicketState::Done);
  std::uint64_t last_interactive = 0;
  for (const ReadTiming& t : quick->read_timings())
    last_interactive = std::max(last_interactive, t.admit_seq);
  std::size_t bulk_during = 0;
  for (const ReadTiming& t : bulk->read_timings())
    if (t.admit_seq != 0 && t.admit_seq < last_interactive) ++bulk_during;
  // 24 interactive grants at weight 3 leave room for ~8 bulk grants at
  // weight 1 in the contended stretch; allow slack on both sides.
  EXPECT_GE(bulk_during, 4u);
  EXPECT_LE(bulk_during, 14u);
}

// -------------------------------------------------- cancellation lifecycle

TEST_F(SchedulerTest, CancelThenPollLifecycleKeepsDonePrefixConsistent) {
  auto sync = make_router(3, true, BackendKind::Circuit);
  auto async = make_router(3, true, BackendKind::Circuit);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 3);

  SearchService service(*async);
  // The ticket owns on_complete, so the callback holds a raw pointer: a
  // shared_ptr here would be a ticket -> callback -> ticket cycle that
  // never frees. The test keeps `ticket` alive past every callback.
  std::promise<SearchTicket*> handle;
  std::shared_future<SearchTicket*> handle_future =
      handle.get_future().share();
  std::atomic<std::size_t> delivered{0};
  std::atomic<bool> cancel_done{false};
  SearchService::Options options;
  options.workers = 3;
  options.max_in_flight = 2;
  options.on_complete = [&delivered, &cancel_done, handle_future](
                            std::size_t, const QueryResult&) {
    // Cancel from inside a completion callback, mid-flight: reads beyond
    // the in-flight window at this instant must never execute. Later
    // deliveries wait for the cancel.
    const std::size_t n = delivered.fetch_add(1) + 1;
    if (n == 3) {
      handle_future.get()->cancel();
      cancel_done.store(true, std::memory_order_release);
    } else if (n > 3) {
      hold_until(cancel_done);
    }
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  handle.set_value(ticket.get());
  ticket->wait();  // returns normally for a cancelled ticket
  ticket->cancel();  // double-call: idempotent no-op

  EXPECT_TRUE(ticket->done());
  EXPECT_EQ(ticket->state(), TicketState::Cancelled);
  EXPECT_THROW(ticket->drain(), ServiceError);

  std::size_t done = 0;
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ticket->size(); ++i) {
    switch (ticket->outcome(i)) {
      case ReadOutcome::Done:
        ++done;
        expect_read_equal(ticket->result(i), fifo[i], i);
        break;
      case ReadOutcome::Cancelled: {
        ++cancelled;
        try {
          (void)ticket->result(i);
          FAIL() << "result(" << i << ") of a cancelled read must throw";
        } catch (const ServiceError& e) {
          EXPECT_EQ(e.kind(), ServiceErrorKind::Cancelled);
        }
        break;
      }
      default:
        FAIL() << "unexpected outcome for read " << i;
    }
  }
  EXPECT_EQ(done + cancelled, ticket->size());
  EXPECT_GE(done, 3u);   // the delivered prefix survived
  EXPECT_LE(done, 10u);  // cancellation stopped the window promptly
  EXPECT_GE(cancelled, 14u);
  const TicketStats stats = ticket->stats();
  EXPECT_EQ(stats.done, done);
  EXPECT_EQ(stats.cancelled, cancelled);
}

TEST_F(SchedulerTest, CancelledWorkBooksNoPhantomEnergy) {
  // Noisy circuit sensing — the strongest case: the ledger must contain
  // EXACTLY the Done reads' energy/latency (summed in read order, the
  // synchronous flush order) and nothing from cancelled work.
  auto sync = make_router(3, false, BackendKind::Circuit);
  auto async = make_router(3, false, BackendKind::Circuit);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 3);

  SearchService service(*async);
  // Raw pointer, not shared_ptr: the ticket owns on_complete (see
  // CancelThenPollLifecycleKeepsDonePrefixConsistent).
  std::promise<SearchTicket*> handle;
  std::shared_future<SearchTicket*> handle_future =
      handle.get_future().share();
  std::atomic<std::size_t> delivered{0};
  std::atomic<bool> cancel_done{false};
  SearchService::Options options;
  options.workers = 3;
  options.max_in_flight = 2;
  options.on_complete = [&delivered, &cancel_done, handle_future](
                            std::size_t, const QueryResult&) {
    const std::size_t n = delivered.fetch_add(1) + 1;
    if (n == 4) {
      handle_future.get()->cancel();
      cancel_done.store(true, std::memory_order_release);
    } else if (n > 4) {
      hold_until(cancel_done);
    }
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  handle.set_value(ticket.get());
  ticket->wait();
  ASSERT_EQ(ticket->state(), TicketState::Cancelled);

  double expected_energy = 0.0;
  double expected_latency = 0.0;
  std::size_t done = 0;
  for (std::size_t i = 0; i < ticket->size(); ++i)
    if (ticket->outcome(i) == ReadOutcome::Done) {
      ++done;
      expect_read_equal(ticket->result(i), fifo[i], i);
      expected_energy += fifo[i].energy_joules;
      expected_latency += fifo[i].latency_seconds;
    }
  ASSERT_GE(done, 4u);
  ASSERT_LT(done, ticket->size());
  const ExecutionTotals totals = async->totals();
  EXPECT_EQ(totals.queries, done);
  EXPECT_EQ(totals.energy_joules, expected_energy);
  EXPECT_EQ(totals.latency_seconds, expected_latency);
  const TicketStats stats = ticket->stats();
  EXPECT_EQ(stats.booked_energy_joules, expected_energy);
  EXPECT_EQ(stats.booked_latency_seconds, expected_latency);
}

TEST_F(SchedulerTest, ConcurrentCancelAndWaitDoubleCallIsSafe) {
  // Races pinned down for TSan: cancel() from two threads while the
  // control thread wait()s, double-cancel, double-wait. Whatever the
  // interleaving, every Done read is bit-identical to FIFO and the
  // ledger books exactly the Done subset.
  for (int round = 0; round < 4; ++round) {
    auto sync = make_router(3, true, BackendKind::Circuit);
    auto async = make_router(3, true, BackendKind::Circuit);
    const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 4);

    SearchService service(*async);
    SearchService::Options options;
    options.workers = 4;
    options.max_in_flight = 4;
    auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
    std::thread canceller1([&] { ticket->cancel(); });
    std::thread canceller2([&] { ticket->cancel(); });
    ticket->wait();
    ticket->wait();  // idempotent
    canceller1.join();
    canceller2.join();

    EXPECT_TRUE(ticket->done());
    EXPECT_TRUE(ticket->state() == TicketState::Cancelled ||
                ticket->state() == TicketState::Done);
    double expected_energy = 0.0;
    std::size_t done = 0;
    for (std::size_t i = 0; i < ticket->size(); ++i)
      if (ticket->outcome(i) == ReadOutcome::Done) {
        ++done;
        expect_read_equal(ticket->result(i), fifo[i], i);
        expected_energy += fifo[i].energy_joules;
      }
    EXPECT_EQ(async->totals().queries, done);
    EXPECT_EQ(async->totals().energy_joules, expected_energy);
  }
}

TEST_F(SchedulerTest, CancelFromCallbackMidBlockLeavesRestOfBlockUnbooked) {
  // Two workers under a window of two blocks: the first grants claim
  // reads [0, 8) and [8, 16) as two pool tasks. In arrival order each
  // read's callback fires as it merges, so a cancel() from read 2's
  // callback lands between two reads of the first block: reads 3..7
  // (granted, never executed) and every read not yet granted reach
  // Cancelled and book nothing. The second block ran concurrently, so
  // each of its reads is Done or Cancelled; every Done read is
  // search_batch's and the ledger books exactly those.
  auto sync = make_router(3, false, BackendKind::Circuit);
  auto async = make_router(3, false, BackendKind::Circuit);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  SearchService service(*async);
  // Raw pointer, not shared_ptr: the ticket owns on_complete (see
  // CancelThenPollLifecycleKeepsDonePrefixConsistent).
  std::promise<SearchTicket*> handle;
  std::shared_future<SearchTicket*> handle_future =
      handle.get_future().share();
  std::atomic<bool> cancel_done{false};
  SearchService::Options options;
  options.workers = 2;
  options.max_in_flight = 2 * kServiceBlockReads;
  options.on_complete = [handle_future, &cancel_done](
                            std::size_t i, const QueryResult&) {
    // The second block waits for the cancel, so it cannot retire and
    // free the budget that would grant reads 16 on before it.
    if (i == 2) {
      handle_future.get()->cancel();
      cancel_done.store(true, std::memory_order_release);
    } else if (i >= kServiceBlockReads) {
      hold_until(cancel_done);
    }
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  handle.set_value(ticket.get());
  ticket->wait();

  ASSERT_EQ(ticket->state(), TicketState::Cancelled);
  double expected_energy = 0.0;
  double expected_latency = 0.0;
  std::size_t done = 0;
  const std::vector<ReadTiming> timings = ticket->read_timings();
  for (std::size_t i = 0; i < ticket->size(); ++i) {
    const ReadOutcome outcome = ticket->outcome(i);
    if (i < 3) {
      EXPECT_EQ(outcome, ReadOutcome::Done) << "read " << i;
    } else if (i < kServiceBlockReads) {
      EXPECT_EQ(outcome, ReadOutcome::Cancelled) << "read " << i;
    } else if (i >= 2 * kServiceBlockReads) {
      EXPECT_EQ(outcome, ReadOutcome::Cancelled) << "read " << i;
      EXPECT_EQ(timings[i].admit_seq, 0u) << "read " << i << " was granted";
    }
    if (outcome != ReadOutcome::Done) continue;
    ++done;
    expect_read_equal(ticket->result(i), fifo[i], i);
    expected_energy += fifo[i].energy_joules;
    expected_latency += fifo[i].latency_seconds;
  }
  const ExecutionTotals totals = async->totals();
  EXPECT_EQ(totals.queries, done);
  EXPECT_EQ(totals.energy_joules, expected_energy);
  EXPECT_EQ(totals.latency_seconds, expected_latency);
  EXPECT_EQ(service.in_flight_reads(), 0u);
  EXPECT_EQ(service.queued_reads(), 0u);
}

// ----------------------------------------------------- deadlines (virtual)

TEST_F(SchedulerTest, DeadlineExpiryIsDeterministicUnderVirtualClock) {
  auto sync = make_router(1, true, BackendKind::Circuit);
  auto async = make_router(1, true, BackendKind::Circuit);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  VirtualClock clock;
  SearchService::Config config;
  config.clock = &clock;
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  options.max_in_flight = 1;  // serialise reads: expiry point is exact
  options.deadline_seconds = 10.0;
  std::atomic<std::size_t> delivered{0};
  options.on_complete = [&](std::size_t, const QueryResult&) {
    if (delivered.fetch_add(1) + 1 == 3) clock.advance(20.0);
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  ticket->wait();

  EXPECT_EQ(ticket->state(), TicketState::Expired);
  const TicketStats stats = ticket->stats();
  EXPECT_EQ(stats.done, 3u);
  EXPECT_EQ(stats.expired, ticket->size() - 3);
  EXPECT_EQ(stats.cancelled, 0u);
  for (std::size_t i = 0; i < 3; ++i)
    expect_read_equal(ticket->result(i), fifo[i], i);
  try {
    (void)ticket->result(5);
    FAIL() << "result() of an expired read must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceErrorKind::Expired);
  }
}

TEST_F(SchedulerTest, DeadlinePassingInsideBlockExpiresTheRestOfIt) {
  // The virtual clock jumps past the deadline in read 2's callback, i.e.
  // between two reads of the first block ([0, 8)): the block's remaining
  // reads and every read not yet granted expire. On the threadless pool
  // that block is the only one that runs; on two workers a second block
  // runs beside it, and each of its reads is Done or Expired.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    auto sync = make_router(1, true, BackendKind::Circuit);
    auto async = make_router(1, true, BackendKind::Circuit);
    const auto fifo =
        sync->search_batch(reads_, 4, StrategyMode::Full, workers);

    VirtualClock clock;
    SearchService::Config config;
    config.clock = &clock;
    SearchService service(*async, config);
    SearchService::Options options;
    options.workers = workers;
    options.max_in_flight = 2 * kServiceBlockReads;
    options.deadline_seconds = 10.0;
    // The second block waits for the advance, so it cannot retire and
    // free the budget that would grant reads 16 on before it.
    std::atomic<bool> advanced{false};
    options.on_complete = [&clock, &advanced](std::size_t i,
                                              const QueryResult&) {
      if (i == 2) {
        clock.advance(20.0);
        advanced.store(true, std::memory_order_release);
      } else if (i >= kServiceBlockReads) {
        hold_until(advanced);
      }
    };
    auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
    ticket->wait();

    EXPECT_EQ(ticket->state(), TicketState::Expired);
    std::size_t done = 0;
    for (std::size_t i = 0; i < ticket->size(); ++i) {
      const ReadOutcome outcome = ticket->outcome(i);
      if (i < 3) {
        EXPECT_EQ(outcome, ReadOutcome::Done) << "read " << i;
      } else if (i < kServiceBlockReads || i >= 2 * kServiceBlockReads ||
                 workers == 1) {
        EXPECT_EQ(outcome, ReadOutcome::Expired) << "read " << i;
      }
      if (outcome != ReadOutcome::Done) continue;
      ++done;
      expect_read_equal(ticket->result(i), fifo[i], i);
    }
    const TicketStats stats = ticket->stats();
    EXPECT_EQ(stats.done, done);
    EXPECT_EQ(stats.expired, ticket->size() - done);
    EXPECT_EQ(async->totals().queries, done);
    EXPECT_EQ(service.in_flight_reads(), 0u);
  }
}

TEST_F(SchedulerTest, ExpiredTicketReleasesAdmissionSlots) {
  auto sync = make_router(1, true, BackendKind::Circuit);
  auto async = make_router(1, true, BackendKind::Circuit);
  (void)sync->search_batch(reads_, 4, StrategyMode::Full, 2);  // epoch 1
  const std::vector<Sequence> second_batch = prefix(8);
  const auto fifo_second =
      sync->search_batch(second_batch, 4, StrategyMode::Full, 2);  // epoch 2

  VirtualClock clock;
  SearchService::Config config;
  config.clock = &clock;
  config.max_in_flight_reads = 2;
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  options.max_in_flight = 2;
  options.deadline_seconds = 5.0;
  std::atomic<std::size_t> delivered{0};
  options.on_complete = [&](std::size_t, const QueryResult&) {
    if (delivered.fetch_add(1) == 0) clock.advance(100.0);
  };
  auto first = service.submit(reads_, 4, StrategyMode::Full, options);
  first->wait();
  ASSERT_EQ(first->state(), TicketState::Expired);
  ASSERT_LT(first->stats().done, first->size());

  // Every admission slot and queue place must be back.
  EXPECT_EQ(service.in_flight_reads(), 0u);
  EXPECT_EQ(service.queued_reads(), 0u);

  // And a subsequent ticket admits and completes normally, bit-identical
  // to its FIFO twin (epoch 2 — the expired ticket still consumed one).
  SearchService::Options clean;
  clean.workers = 2;
  auto second = service.submit(second_batch, 4, StrategyMode::Full, clean);
  expect_identical(second->drain(), fifo_second);
}

// ------------------------------------------------------ bounded admission

TEST_F(SchedulerTest, TrySubmitRejectsWhenQueueFullThenRecovers) {
  auto sync = make_router(1, true, BackendKind::Functional);
  auto async = make_router(1, true, BackendKind::Functional);
  (void)sync->search_batch(reads_, 4, StrategyMode::Full, 2);  // epoch 1
  const std::vector<Sequence> second_batch = prefix(16);
  const auto fifo_second =
      sync->search_batch(second_batch, 4, StrategyMode::Full, 2);  // epoch 2

  ThreadPool& pool = async->worker_pool(2);
  auto gates = std::make_unique<WorkerGates>(pool);

  SearchService::Config config;
  config.max_pending_reads = 32;
  config.max_in_flight_reads = 1;
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  auto bulk = service.submit(reads_, 4, StrategyMode::Full, options);
  // 24 reads reserved, 1 granted: 23 pending. 23 + 16 > 32 — reject, and
  // crucially WITHOUT bumping the batch epoch.
  try {
    (void)service.try_submit(second_batch, 4, StrategyMode::Full, options);
    FAIL() << "try_submit over a full queue must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceErrorKind::AdmissionFull);
  }
  gates.reset();
  bulk->wait();
  EXPECT_EQ(service.queued_reads(), 0u);
  // Queue drained: the same submission is admitted now, and its results
  // prove the failed attempt had no side effects (same epoch-2 streams).
  auto second =
      service.try_submit(second_batch, 4, StrategyMode::Full, options);
  expect_identical(second->drain(), fifo_second);
}

TEST_F(SchedulerTest, BlockingSubmitWaitsForSpaceInsteadOfFailing) {
  auto sync = make_router(1, true, BackendKind::Circuit);
  auto async = make_router(1, true, BackendKind::Circuit);
  const auto fifo_first = sync->search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<Sequence> second_batch = prefix(8);
  const auto fifo_second =
      sync->search_batch(second_batch, 4, StrategyMode::Full, 2);

  SearchService::Config config;
  config.max_pending_reads = 26;
  config.max_in_flight_reads = 2;
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  auto first = service.submit(reads_, 4, StrategyMode::Full, options);
  // 8 more reads do not fit until the first ticket drains below 18
  // pending: submit() must block, then proceed — never throw. (The
  // control plane moves to this thread for the duration; the main thread
  // makes no service calls until it joins.)
  std::shared_ptr<SearchTicket> second;
  std::thread submitter([&] {
    second = service.submit(second_batch, 4, StrategyMode::Full, options);
  });
  submitter.join();
  ASSERT_NE(second, nullptr);
  first->wait();
  second->wait();
  expect_identical(first->drain(), fifo_first);
  expect_identical(second->drain(), fifo_second);
}

TEST_F(SchedulerTest, OversizedSubmissionFailsFastInBothModes) {
  auto sync = make_router(1, true, BackendKind::Functional);
  auto async = make_router(1, true, BackendKind::Functional);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  SearchService::Config config;
  config.max_pending_reads = 8;
  SearchService service(*async, config);
  SearchService::Options options;
  options.workers = 2;
  // 24 reads can never fit an 8-read queue: both the blocking and the
  // fail-fast paths must reject instead of deadlocking.
  EXPECT_THROW((void)service.submit(reads_, 4, StrategyMode::Full, options),
               ServiceError);
  EXPECT_THROW(
      (void)service.try_submit(reads_, 4, StrategyMode::Full, options),
      ServiceError);
  // Neither rejection had side effects: the synchronous path still draws
  // epoch-1 streams and matches its twin bit-for-bit.
  expect_identical(async->search_batch(reads_, 4, StrategyMode::Full, 2),
                   fifo);
}

TEST_F(SchedulerTest, InvalidConfigAndOptionsAreRejected) {
  auto async = make_router(1, true, BackendKind::Functional);
  SearchService::Config bad;
  bad.class_weights = {16, 0, 1};
  try {
    SearchService broken(*async, bad);
    FAIL() << "a zero class weight must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceErrorKind::InvalidOptions);
  }

  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  options.deadline_seconds = -1.0;
  try {
    (void)service.submit(reads_, 4, StrategyMode::Full, options);
    FAIL() << "a negative deadline must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceErrorKind::InvalidOptions);
  }
}

// ------------------------------------------------ re-sequencer under abort

TEST_F(SchedulerTest, ResequencerNotWedgedByCancelledReads) {
  // PR-3 returned in-order admission slots at DELIVERY; a cancelled read
  // ahead of the re-sequencer head must flush through like a completed
  // one — wait() returns, the window never wedges, and the service stays
  // usable. The cancel fires from INSIDE an in-order delivery callback,
  // the nastiest re-entrancy path.
  auto sync = make_router(3, true, BackendKind::Circuit);
  auto async = make_router(3, true, BackendKind::Circuit);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 3);
  const std::vector<Sequence> second_batch = prefix(6);
  const auto fifo_second =
      sync->search_batch(second_batch, 4, StrategyMode::Full, 3);

  SearchService service(*async);
  std::promise<std::shared_ptr<SearchTicket>> handle;
  std::shared_future<std::shared_ptr<SearchTicket>> handle_future =
      handle.get_future().share();
  std::mutex order_mutex;
  std::vector<std::size_t> delivered;
  SearchService::Options options;
  options.workers = 3;
  options.max_in_flight = 2;
  options.in_order = true;
  options.keep_results = false;
  options.on_complete = [&](std::size_t index, const QueryResult& result) {
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      delivered.push_back(index);
    }
    expect_read_equal(result, fifo[index], index);
    if (index == 1) handle_future.get()->cancel();
  };
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  handle.set_value(ticket);
  ticket->wait();  // the wedge assertion: this must return

  EXPECT_TRUE(ticket->done());
  EXPECT_EQ(ticket->state(), TicketState::Cancelled);
  EXPECT_LE(ticket->peak_in_flight(), 2u);
  // In-order delivery of exactly the Done reads, ascending.
  std::vector<std::size_t> expected_delivery;
  for (std::size_t i = 0; i < ticket->size(); ++i)
    if (ticket->outcome(i) == ReadOutcome::Done) expected_delivery.push_back(i);
  EXPECT_EQ(delivered, expected_delivery);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));

  // The window was returned: a follow-up in-order ticket runs to
  // completion on the same service.
  SearchService::Options clean;
  clean.workers = 3;
  clean.in_order = true;
  auto second = service.submit(second_batch, 4, StrategyMode::Full, clean);
  expect_identical(second->drain(), fifo_second);
}

// ------------------------------------------------------- virtual-clock stats

TEST_F(SchedulerTest, VirtualClockTwoRunsProduceIdenticalStats) {
  // Scheduling observability itself must be reproducible when time is
  // injected: two identical runs under a virtual clock yield bit-equal
  // TicketStats and per-read timings.
  const auto run = [&] {
    VirtualClock clock;
    auto router = make_router(1, true, BackendKind::Circuit);
    SearchService::Config config;
    config.clock = &clock;
    SearchService service(*router, config);
    SearchService::Options options;
    options.workers = 2;
    options.max_in_flight = 1;  // serialise: the clock script is exact
    options.on_complete = [&clock](std::size_t, const QueryResult&) {
      clock.advance(0.25);
    };
    auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
    ticket->wait();
    return std::make_pair(ticket->stats(), ticket->read_timings());
  };
  const auto [stats_a, timings_a] = run();
  const auto [stats_b, timings_b] = run();

  EXPECT_EQ(stats_a.done, stats_b.done);
  EXPECT_EQ(stats_a.done, reads_.size());
  const auto expect_pct_eq = [](const LatencyPercentiles& a,
                                const LatencyPercentiles& b) {
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
  };
  expect_pct_eq(stats_a.queue_wait, stats_b.queue_wait);
  expect_pct_eq(stats_a.execution, stats_b.execution);
  expect_pct_eq(stats_a.merge, stats_b.merge);
  expect_pct_eq(stats_a.completion, stats_b.completion);
  expect_pct_eq(stats_a.model_latency, stats_b.model_latency);
  expect_pct_eq(stats_a.model_energy, stats_b.model_energy);
  EXPECT_EQ(stats_a.booked_energy_joules, stats_b.booked_energy_joules);
  ASSERT_EQ(timings_a.size(), timings_b.size());
  for (std::size_t i = 0; i < timings_a.size(); ++i) {
    EXPECT_EQ(timings_a[i].outcome, timings_b[i].outcome);
    EXPECT_EQ(timings_a[i].started, timings_b[i].started);
    EXPECT_EQ(timings_a[i].merged, timings_b[i].merged);
    EXPECT_EQ(timings_a[i].model_latency_seconds,
              timings_b[i].model_latency_seconds);
    EXPECT_EQ(timings_a[i].model_energy_joules,
              timings_b[i].model_energy_joules);
  }
  // The clock script is known: read k starts at 0.25 * k.
  EXPECT_EQ(timings_a[4].started, 1.0);
}

TEST_F(SchedulerTest, StatsPercentilesMatchDeterministicModel) {
  auto sync = make_router(2, true, BackendKind::Circuit);
  auto async = make_router(2, true, BackendKind::Circuit);
  const auto fifo = sync->search_batch(reads_, 4, StrategyMode::Full, 2);

  // While gated (nothing can complete), stats() must refuse — the ticket
  // is not terminal.
  ThreadPool& pool = async->worker_pool(2);
  auto gates = std::make_unique<WorkerGates>(pool);
  SearchService service(*async);
  SearchService::Options options;
  options.workers = 2;
  auto ticket = service.submit(reads_, 4, StrategyMode::Full, options);
  try {
    (void)ticket->stats();
    FAIL() << "stats() on a running ticket must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceErrorKind::NotTerminal);
  }
  gates.reset();
  ticket->wait();

  // Model-cost percentiles are pure functions of the deterministic
  // per-read results — recompute them from the FIFO twin.
  std::vector<double> latencies;
  std::vector<double> energies;
  double energy_sum = 0.0;
  for (const QueryResult& r : fifo) {
    latencies.push_back(r.latency_seconds);
    energies.push_back(r.energy_joules);
    energy_sum += r.energy_joules;
  }
  const TicketStats stats = ticket->stats();
  EXPECT_EQ(stats.reads, fifo.size());
  EXPECT_EQ(stats.done, fifo.size());
  EXPECT_EQ(stats.model_latency.p50, percentile_of(latencies, 0.50));
  EXPECT_EQ(stats.model_latency.p95, percentile_of(latencies, 0.95));
  EXPECT_EQ(stats.model_latency.p99, percentile_of(latencies, 0.99));
  EXPECT_EQ(stats.model_energy.p50, percentile_of(energies, 0.50));
  EXPECT_EQ(stats.model_energy.p99, percentile_of(energies, 0.99));
  EXPECT_EQ(stats.booked_energy_joules, energy_sum);
  // Wall-clock phases are ordered even if their absolute values vary.
  EXPECT_LE(stats.queue_wait.p50, stats.completion.p50);
  EXPECT_LE(stats.completion.p50, stats.completion.p99);
}

// ------------------------------------------------------------------ stress

TEST_F(SchedulerTest, StressPolicyMixBitIdenticalOnEveryBackend) {
  // The headline property under chaos: five tickets with shuffled
  // priority classes, a tight global budget, per-ticket windows smaller
  // than the batch, one ticket under a real (steady-clock) deadline, one
  // cancelled from another thread at a racy instant, one in-order — on
  // all three backend cases, noisy circuit sensing included. Whatever
  // completes must be bit-identical to FIFO; whatever doesn't must book
  // nothing.
  int iters = 2;
  if (const char* env = std::getenv("ASMCAP_SCHEDULER_STRESS_ITERS"))
    iters = std::max(1, std::atoi(env));
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  const Case cases[] = {Case{true, BackendKind::Circuit},
                        Case{false, BackendKind::Circuit},
                        Case{true, BackendKind::Functional}};
  const ServiceClass classes[] = {ServiceClass::Bulk, ServiceClass::Interactive,
                                  ServiceClass::Normal, ServiceClass::Bulk,
                                  ServiceClass::Interactive};
  Rng chaos(777);
  for (int iter = 0; iter < iters; ++iter) {
    for (const Case& c : cases) {
      auto sync = make_router(3, c.ideal, c.backend);
      auto async = make_router(3, c.ideal, c.backend);
      std::vector<std::vector<Sequence>> batches;
      std::vector<std::vector<QueryResult>> fifo;
      for (std::size_t t = 0; t < 5; ++t) {
        batches.push_back(prefix(8 + 4 * t));
        fifo.push_back(
            sync->search_batch(batches[t], 4, StrategyMode::Full, 4));
      }

      SearchService::Config config;
      config.max_in_flight_reads = 3;
      SearchService service(*async, config);
      const std::size_t deadline_ticket = 1 + iter % 2;
      const std::size_t cancel_ticket = (2 + iter) % 5;
      std::vector<std::shared_ptr<SearchTicket>> tickets;
      for (std::size_t t = 0; t < 5; ++t) {
        SearchService::Options options;
        options.workers = 4;
        options.max_in_flight = 2;
        options.service_class = classes[t];
        options.in_order = (t == 3);
        if (t == deadline_ticket) options.deadline_seconds = 0.002;
        tickets.push_back(
            service.submit(batches[t], 4, StrategyMode::Full, options));
      }
      const auto nap = chaos.below(2000);
      std::thread canceller([&, nap] {
        std::this_thread::sleep_for(std::chrono::microseconds(nap));
        tickets[cancel_ticket]->cancel();
      });
      for (auto& ticket : tickets) ticket->wait();  // submission order
      canceller.join();

      double expected_energy = 0.0;
      double expected_latency = 0.0;
      std::size_t expected_queries = 0;
      for (std::size_t t = 0; t < 5; ++t) {
        const auto& ticket = *tickets[t];
        EXPECT_TRUE(ticket.done());
        EXPECT_LE(ticket.peak_in_flight(), 2u);
        std::size_t terminal = 0;
        for (std::size_t i = 0; i < ticket.size(); ++i) {
          const ReadOutcome outcome = ticket.outcome(i);
          ASSERT_NE(outcome, ReadOutcome::Pending);
          ASSERT_NE(outcome, ReadOutcome::Failed);
          ++terminal;
          if (outcome != ReadOutcome::Done) continue;
          expect_read_equal(ticket.result(i), fifo[t][i], i);
          expected_energy += fifo[t][i].energy_joules;
          expected_latency += fifo[t][i].latency_seconds;
          ++expected_queries;
        }
        EXPECT_EQ(terminal, ticket.size());
        const TicketStats stats = ticket.stats();
        EXPECT_EQ(stats.done + stats.cancelled + stats.expired,
                  ticket.size());
      }
      // The ledger is exactly the Done subset, summed in flush order.
      const ExecutionTotals totals = async->totals();
      EXPECT_EQ(totals.queries, expected_queries);
      EXPECT_EQ(totals.energy_joules, expected_energy);
      EXPECT_EQ(totals.latency_seconds, expected_latency);
      // Scheduler fully drained.
      EXPECT_EQ(service.in_flight_reads(), 0u);
      EXPECT_EQ(service.queued_reads(), 0u);
    }
  }
}

}  // namespace
}  // namespace asmcap
