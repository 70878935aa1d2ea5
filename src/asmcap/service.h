#pragma once
// Streaming search service: an asynchronous submit/poll/drain layer over
// the sharded accelerator, for service-style deployments where reads
// arrive while earlier ones are still executing.
//
//   SearchService::submit(reads) returns a SearchTicket immediately; the
//   (read x shard) work fans out over the router's session pool behind it.
//   Each read completes — merged, re-based to global segment ids — the
//   moment its LAST shard finishes, independent of every other read:
//
//     submit ──► admit (≤ max_in_flight reads)                ┐ per read:
//                  read i: plan + fork RNG stream             │ plan once,
//                     ├─ bank 0 ─┐                            │ execute on
//                     ├─ bank 1 ─┼─► last shard merges ──►    │ every bank,
//                     └─ bank N ─┘    complete(i): callback / │ merge at
//                                     poll-ready / admit next │ completion
//
// Peak partial-result memory is O(max_in_flight x shards), not
// O(batch x shards): a read's per-shard staging buffer exists only while
// that read is in flight, and is released as soon as it is merged (a
// single-shard router stages nothing at all — the bank's result is
// already global). Admission is throttled, so an arbitrarily large
// submission never materialises more than max_in_flight staging buffers.
//
// THE SERVICE TIER (scheduling, deadlines, cancellation). Admission is no
// longer a per-ticket free-for-all: every SearchService owns a
// ServiceScheduler that grants reads to tickets one at a time, under
//
//  * priority classes — ServiceOptions::service_class picks Interactive /
//    Normal / Bulk; grants follow weighted fair-share (stride scheduling
//    over ServiceConfig::class_weights), so a small interactive ticket
//    overtakes a bulk re-analysis instead of queueing behind it, while
//    positive weights guarantee bulk work is never starved. Each class
//    also maps to a pool TaskPriority, so granted interactive tasks jump
//    the pool queue too.
//  * a global in-flight budget — ServiceConfig::max_in_flight_reads caps
//    reads executing across ALL tickets of the service (0 = unlimited;
//    per-ticket max_in_flight still applies independently).
//  * bounded-queue admission — ServiceConfig::max_pending_reads bounds
//    reads accepted but not yet granted; submit() blocks for space,
//    try_submit() fails fast with ServiceError{AdmissionFull}.
//  * deadlines and cancellation — ServiceOptions::deadline_seconds and
//    SearchTicket::cancel() stop a ticket COOPERATIVELY: checked between
//    per-read/per-shard tasks, never mid-kernel. Reads already merged
//    stay Done; everything else reaches a Cancelled/Expired terminal
//    state, frees its staging, returns its admission slots, and books
//    nothing in the ledger (no phantom energy). The ticket's state()
//    reports Cancelled/Expired distinct from Done, and wait() still
//    returns normally so the Done prefix can be consumed.
//  * per-ticket observability — every read records queue-wait /
//    execution / merge timestamps from an injectable ServiceClock
//    (util/clock.h; virtual in tests, steady in production), and
//    stats() aggregates p50/p95/p99 latency and energy percentiles into
//    TicketStats once the ticket is terminal.
//
// With shard pruning enabled (config.pruning.enabled), each read's
// fan-out covers only its probe-survivor shard set (ShardedAccelerator::
// probe_shards): staging buffers shrink to the survivors, a read every
// bank pruned completes instantly with the all-false merged shape, and
// the per-read probe counters are flushed to the ledger at wait(). The
// probe runs on the worker, over each bank's row store with the read's
// plan views (AsmcapAccelerator::may_match): banks build no sketch.
// Decisions stay bit-identical to full fan-out — see docs/determinism.md.
//
// Three consumption styles (combinable per submission, with one rule:
// cross-thread pollers must stop using result() references before the
// control thread calls drain(), which moves the results out):
//  * poll      — ticket->ready(i) / ticket->result(i) per read,
//                ticket->completed() / done() for progress;
//  * streaming — Options::on_complete fires as each read merges, in
//                arrival order, or in read order with Options::in_order
//                (a re-sequencer holds completed reads until their turn);
//                with Options::keep_results = false the merged result is
//                released right after the callback, so the whole pipeline
//                is O(in-flight) rather than O(batch);
//  * drain     — ticket->drain() blocks and returns all results in read
//                order (what ShardedAccelerator::search_batch does).
//
// This is the one batch engine: ShardedAccelerator::search_batch is
// submit + drain, banks only execute(), and a monolithic search is a
// 1-shard router. Determinism: read i's RNG stream is a pure function
// of (router master stream, batch epoch, read index) —
// master.fork((epoch << 32) | i), pinned against a bank's execute() by
// tests/test_sharded.cpp — and per-read merging preserves the shard
// summation order, so neither completion order, worker count, in-flight
// depth, priority class, nor any cancel/deadline schedule can perturb a
// COMPLETED read's decisions, energy, latency, or ledger record
// (enforced by tests/test_service.cpp and tests/test_scheduler.cpp).
// Scheduling may reorder execution but never decisions; cancellation
// only discards work whose RNG draws never escape the ticket
// (docs/determinism.md rule 9).
//
// Ownership: SearchService borrows the ShardedAccelerator (non-owning);
// tickets hold work that runs on the accelerator's session pool, so a
// ticket must not outlive the accelerator. The scheduler is shared
// (shared_ptr) between the service and its tickets, so tickets outliving
// the service stay safe. A ticket is kept alive by its in-flight tasks —
// dropping the shared_ptr early is safe, but wait()/drain() is the only
// way to observe errors and to flush the ledger. The ServiceClock is
// borrowed and must outlive the service and every ticket.
// Thread-safety: the control plane (submit, wait, drain, and any other
// search on the same accelerator) belongs to ONE thread at a time, like
// every other accelerator entry point; ready()/result()/completed()/
// state()/cancel() may be called from any thread while workers execute.
// The control thread MAY interleave sequential search()/map() calls while
// a ticket is in flight: each ticket forks its per-read streams from a
// snapshot of the master RNG taken at submit (never from the live state),
// and worker_pool() clamps growth while tickets are outstanding, so an
// interleaved search neither races the ticket nor perturbs its decisions.
// on_complete fires on worker threads (or inline on the submitting thread
// when the pool has no spawned threads) and must be thread-safe for
// distinct reads; exceptions it throws are captured and rethrown at
// wait(). Reentrancy: callbacks must not call back into the accelerator's
// blocking entry points (search/search_batch/parallel_for) — they run
// inside pool tasks.
//
// The ledger: totals for the whole submission are recorded at wait()
// (which drain() calls), sequentially in read order, whatever order the
// reads completed in. Only reads whose outcome is Done
// are recorded: a cancelled or expired read never executed-and-merged, so
// it books no latency and no energy.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "asmcap/accelerator.h"
#include "asmcap/planner.h"
#include "asmcap/service_error.h"
#include "asmcap/sharded.h"
#include "genome/sequence.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace asmcap {

class SearchService;
class SearchTicket;

/// Priority class of one submission. Classes shape WHEN work runs (grant
/// order, pool queue priority) — never WHAT it computes.
enum class ServiceClass : std::uint8_t { Interactive = 0, Normal = 1, Bulk = 2 };
inline constexpr std::size_t kServiceClassCount = 3;

/// Terminal state of a whole ticket. Running until every read is
/// terminal; then Cancelled/Expired if the ticket was aborted (even if
/// some reads completed first), else Done.
enum class TicketState : std::uint8_t { Running, Done, Cancelled, Expired };

/// Terminal state of one read within a ticket.
enum class ReadOutcome : std::uint8_t {
  Pending = 0,    ///< Not terminal yet.
  Done = 1,       ///< Merged; result available, ledger-recorded at wait().
  Cancelled = 2,  ///< Discarded by SearchTicket::cancel(); never booked.
  Expired = 3,    ///< Discarded by the ticket's deadline; never booked.
  Failed = 4,     ///< Threw during execution; wait() rethrows.
};

/// Per-read observability record (timestamps from the service's clock;
/// 0 where a phase never ran — e.g. started stays 0 for a read cancelled
/// before admission).
struct ReadTiming {
  ReadOutcome outcome = ReadOutcome::Pending;
  /// Global admission sequence number across the whole service (1-based
  /// grant order); 0 for reads that were never admitted.
  std::uint64_t admit_seq = 0;
  double submitted = 0.0;  ///< Ticket submit instant (same for all reads).
  double started = 0.0;    ///< Read task began executing.
  double executed = 0.0;   ///< Last shard finished executing.
  double merged = 0.0;     ///< Merged / reached a terminal state.
  double model_latency_seconds = 0.0;  ///< Deterministic model cost (Done).
  double model_energy_joules = 0.0;    ///< Deterministic model cost (Done).
};

struct LatencyPercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Aggregated per-ticket statistics (stats(); terminal tickets only).
/// Wall-clock percentiles aggregate Done reads; model percentiles are the
/// deterministic per-read model costs, so two runs of the same submission
/// agree on them bit-for-bit regardless of scheduling.
struct TicketStats {
  std::size_t reads = 0;
  std::size_t done = 0;
  std::size_t cancelled = 0;
  std::size_t expired = 0;
  std::size_t failed = 0;
  LatencyPercentiles queue_wait;   ///< started - submitted (wall clock).
  LatencyPercentiles execution;    ///< executed - started (wall clock).
  LatencyPercentiles merge;        ///< merged - executed (wall clock).
  LatencyPercentiles completion;   ///< merged - submitted (wall clock).
  LatencyPercentiles model_latency;  ///< Per-read model latency (s).
  LatencyPercentiles model_energy;   ///< Per-read model energy (J).
  double booked_latency_seconds = 0.0;  ///< Sum over Done reads — exactly
  double booked_energy_joules = 0.0;    ///< what wait() ledger-records.
};

/// Service-wide scheduling policy (SearchService constructor argument).
struct ServiceConfig {
  /// Reads allowed in flight at once across ALL tickets of this service
  /// (0 = unlimited — only the per-ticket max_in_flight throttles, which
  /// reproduces the pre-scheduler behaviour bit-for-bit).
  std::size_t max_in_flight_reads = 0;
  /// Bound on reads accepted but not yet granted, across all tickets
  /// (0 = unbounded). submit() blocks until the submission fits;
  /// try_submit() throws ServiceError{AdmissionFull} instead. A single
  /// submission larger than the bound can never fit and is rejected by
  /// both (no deadlock-by-construction).
  std::size_t max_pending_reads = 0;
  /// Weighted fair share per ServiceClass (Interactive, Normal, Bulk).
  /// Grants go to the queued class with the smallest stride-scheduling
  /// pass value; weight w gets ~w/Σw of contended grants. All weights
  /// must be >= 1 (ServiceError{InvalidOptions} otherwise) — a positive
  /// weight is what makes starvation impossible.
  std::array<std::uint32_t, kServiceClassCount> class_weights{16, 4, 1};
  /// Time source for deadlines and the TicketStats timestamps. Borrowed;
  /// nullptr = the process-wide SteadyClock. Tests inject a VirtualClock
  /// to make deadline expiry and latency stats deterministic.
  const ServiceClock* clock = nullptr;
};

/// Weighted fair-share admission engine shared by a SearchService and its
/// tickets (via shared_ptr, so tickets may outlive the service). All
/// policy state — per-class ticket queues, stride passes, the global
/// in-flight budget, the bounded pending-read queue — lives behind one
/// mutex (ASMCAP_GUARDED_BY, checked by Clang's thread-safety analysis);
/// grants themselves (ticket->grant_one()) run OUTSIDE the lock.
/// Thread-safety: every method may be called from any thread; reserve()
/// may block (control plane) while workers retire reads and keep pumping.
class ServiceScheduler {
 public:
  explicit ServiceScheduler(const ServiceConfig& config);

  const ServiceConfig& config() const { return config_; }
  const ServiceClock& clock() const { return *clock_; }

  /// Accounts `reads` pending reads, enforcing max_pending_reads. With
  /// block = true waits for space; returns false when the submission can
  /// never or does not currently fit (caller turns that into a
  /// ServiceError). Always returns true when the queue is unbounded.
  bool reserve(std::size_t reads, bool block) ASMCAP_EXCLUDES(mutex_);

  /// Queues a freshly launched ticket and starts granting.
  void enlist(std::shared_ptr<SearchTicket> ticket) ASMCAP_EXCLUDES(mutex_);

  /// A granted read retired: its global budget slot is free; the ticket
  /// may be hungry for another grant.
  void on_retire(const std::shared_ptr<SearchTicket>& ticket)
      ASMCAP_EXCLUDES(mutex_);

  /// `reads` pending reads left the queue without being granted (a
  /// cancel/deadline sweep claimed them).
  void on_swept(std::size_t reads) ASMCAP_EXCLUDES(mutex_);

  /// Observability (racy by nature; exact only when the service is idle).
  std::size_t in_flight_reads() const ASMCAP_EXCLUDES(mutex_);
  std::size_t queued_reads() const ASMCAP_EXCLUDES(mutex_);

 private:
  void enqueue_locked(const std::shared_ptr<SearchTicket>& ticket)
      ASMCAP_REQUIRES(mutex_);
  void pump() ASMCAP_EXCLUDES(mutex_);

  const ServiceConfig config_;
  const ServiceClock* clock_;
  mutable Mutex mutex_;
  CondVar space_cv_;
  /// Per-class FIFO of tickets wanting grants (deduplicated via the
  /// ticket's sched_queued_ flag).
  std::array<std::deque<std::shared_ptr<SearchTicket>>, kServiceClassCount>
      queues_ ASMCAP_GUARDED_BY(mutex_);
  /// Stride passes.
  std::array<std::uint64_t, kServiceClassCount> pass_
      ASMCAP_GUARDED_BY(mutex_){};
  /// K / weight (written once, in the constructor).
  std::array<std::uint64_t, kServiceClassCount> stride_
      ASMCAP_GUARDED_BY(mutex_){};
  /// Pass of the latest grant (lag capping).
  std::uint64_t last_pass_ ASMCAP_GUARDED_BY(mutex_) = 0;
  /// Global grant counter (1-based).
  std::uint64_t admit_seq_ ASMCAP_GUARDED_BY(mutex_) = 0;
  /// Remaining global budget (if bounded).
  std::size_t free_slots_ ASMCAP_GUARDED_BY(mutex_) = 0;
  /// Reads accepted, not yet granted/swept.
  std::size_t queued_ ASMCAP_GUARDED_BY(mutex_) = 0;
  /// Reads granted, not yet retired.
  std::size_t in_flight_ ASMCAP_GUARDED_BY(mutex_) = 0;
};

/// Handle to one asynchronous submission. Created only by
/// SearchService::submit; see the file comment for the threading contract.
class SearchTicket : public std::enable_shared_from_this<SearchTicket> {
 public:
  /// Reads in this submission.
  std::size_t size() const { return slots_.size(); }

  /// Reads reaching a terminal state so far (Done, Cancelled, Expired, or
  /// Failed; monotonic; completed() == size() once the ticket is done).
  std::size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  bool done() const { return completed() == slots_.size(); }

  /// True once read `i` is terminal (Done or aborted) — check outcome(i)
  /// before touching result(i).
  bool ready(std::size_t i) const;

  /// Terminal state of read `i` (Pending while still in flight).
  ReadOutcome outcome(std::size_t i) const;

  /// Whole-ticket state: Running until every read is terminal, then
  /// Cancelled/Expired if the ticket was aborted, else Done.
  TicketState state() const {
    if (completed() != slots_.size()) return TicketState::Running;
    switch (terminal_cause_.load(std::memory_order_acquire)) {
      case static_cast<std::uint8_t>(ReadOutcome::Cancelled):
        return TicketState::Cancelled;
      case static_cast<std::uint8_t>(ReadOutcome::Expired):
        return TicketState::Expired;
      default:
        return TicketState::Done;
    }
  }

  /// Requests cooperative cancellation, from any thread, idempotently.
  /// Reads already merged stay Done; every other read reaches Cancelled
  /// without executing further shards, frees its staging, returns its
  /// admission slots, and books no energy. A no-op once the ticket is
  /// already terminal. wait() still returns normally — poll outcome(i)
  /// to see which reads completed.
  void cancel();

  /// The merged result of read `i`. Throws std::logic_error if the read
  /// has not completed yet, if Options::keep_results was false, or after
  /// drain() moved the results out; ServiceError{Cancelled/Expired} if
  /// the read was discarded; std::logic_error if it failed (wait()
  /// rethrows the underlying error).
  const QueryResult& result(std::size_t i) const;

  /// Blocks until every read is terminal, rethrows the first error (from
  /// execution or from on_complete), then records the submission's Done
  /// reads in the accelerator's ledger in read order (once).
  /// Control-plane only. Returns normally for cancelled/expired tickets.
  void wait() ASMCAP_EXCLUDES(error_mutex_);

  /// wait(), then moves all results out in read order. Control-plane
  /// only; requires Options::keep_results (the default) and a fully Done
  /// ticket — throws ServiceError{Cancelled/Expired} if the ticket was
  /// aborted (poll result(i)/outcome(i) for the Done prefix instead).
  std::vector<QueryResult> drain();

  /// Priority class this ticket was submitted under.
  ServiceClass service_class() const { return class_; }

  /// Admission throttle this ticket runs under.
  std::size_t max_in_flight() const { return max_in_flight_; }
  /// Highest number of simultaneously in-flight reads observed — the
  /// partial-result memory bound actually reached (<= max_in_flight()).
  std::size_t peak_in_flight() const {
    return peak_in_flight_.load(std::memory_order_acquire);
  }

  /// Aggregated latency/energy percentiles and outcome counts. Terminal
  /// tickets only — throws ServiceError{NotTerminal} while running.
  TicketStats stats() const;

  /// Per-read timing records (same terminal-only contract as stats()).
  std::vector<ReadTiming> read_timings() const;

 private:
  friend class SearchService;
  friend class ServiceScheduler;

  /// Result of one scheduler grant attempt.
  enum class Grant : std::uint8_t {
    Launched,   ///< A read was claimed and its task submitted.
    Aborted,    ///< A read was claimed but was cancelled/expired/failed
                ///< before launching — it is terminal, no budget held.
    Declined,   ///< Per-ticket window full; retry on the next retire.
    Exhausted,  ///< No reads left to grant (all claimed or ticket aborted).
  };

  /// Per-read state. `plan` (with its read views), `partials` and
  /// `shard_ids` exist only between admission and merge (`partials` and
  /// `shard_ids` never exist when the router has a single active shard).
  /// With pruning enabled, shard_ids is this read's probe survivor set —
  /// the only banks dispatched — and the probe counters feed the ledger
  /// at wait().
  struct Slot {
    ExecutionPlan plan;
    Rng rng;
    std::vector<std::uint32_t> shard_ids;  ///< Dispatched shards, ascending.
    std::vector<QueryResult> partials;     ///< partials[j] <- shard_ids[j].
    std::size_t banks_probed = 0;  ///< Pruning-enabled submissions only.
    std::size_t banks_pruned = 0;
    std::atomic<std::size_t> shards_left{0};
    QueryResult merged;
    QueryPlan ledger_plan;  ///< Kept for wait() after merged is released.
    double ledger_latency = 0.0;
    double ledger_energy = 0.0;
    /// Timing observability (timestamps from the service clock). Written
    /// only by the thread that owns the read's current task, published by
    /// the ready release-store below.
    std::uint64_t admit_seq = 0;
    double t_started = 0.0;
    double t_executed = 0.0;
    double t_merged = 0.0;
    std::atomic<std::uint8_t> outcome{
        static_cast<std::uint8_t>(ReadOutcome::Pending)};
    std::atomic<bool> ready{false};
    std::atomic<bool> retired{false};  ///< Admission budget returned.
  };

  /// Owning form (reads moved in) and borrowing form (reads stay with the
  /// caller, which must keep them alive and unmodified until done).
  SearchTicket(ShardedAccelerator& accelerator, std::vector<Sequence> reads,
               std::size_t threshold, StrategyMode mode);
  SearchTicket(ShardedAccelerator& accelerator,
               const std::vector<Sequence>* reads, std::size_t threshold,
               StrategyMode mode);

  Grant grant_one(std::uint64_t admit_seq);
  bool sched_hungry() const;
  bool past_deadline() const;
  void abort_ticket(ReadOutcome cause);
  void sweep_pending();
  void abort_slot(std::size_t i, ReadOutcome cause, bool counts_in_flight);
  void run_read(std::size_t i);
  void run_shard(std::size_t i, std::size_t s);
  void complete_read(std::size_t i, ReadOutcome outcome);
  void finish_one();
  void emit(std::size_t i) ASMCAP_EXCLUDES(seq_mutex_);
  void retire(std::size_t i);
  void record_error(std::exception_ptr error) ASMCAP_EXCLUDES(error_mutex_);
  void release_result(Slot& slot);

  ShardedAccelerator* accel_;
  ThreadPool* pool_ = nullptr;
  /// The database epoch this ticket runs against, captured at launch on
  /// the control plane. Everything worker-side — probe, execute, merge —
  /// reads THIS snapshot, never the router's live pointer: a mutation
  /// published mid-flight (append/delete/compact on the control thread)
  /// builds new or cloned banks and cannot touch the ones pinned here, so
  /// the ticket's decisions, energy, and latency are exactly those of the
  /// epoch it was launched against (tests/test_live.cpp pins this down).
  std::shared_ptr<const DbEpoch> db_;
  std::vector<Sequence> owned_reads_;        ///< Owning submissions only.
  const std::vector<Sequence>* reads_;       ///< The batch (owned or not).
  /// Snapshot of the router's master RNG at submit: workers fork per-read
  /// streams from this copy, never from the live rng_ — so a sequential
  /// search() interleaved with an in-flight ticket neither races the RNG
  /// state nor perturbs this ticket's streams (bit-identity preserved:
  /// fork() is a pure function of state and stream index).
  Rng master_;
  std::size_t threshold_;
  StrategyMode mode_;
  std::uint64_t epoch_ = 0;
  std::size_t max_in_flight_ = 1;
  bool keep_results_ = true;
  bool in_order_ = false;
  std::function<void(std::size_t, const QueryResult&)> on_complete_;

  /// Scheduling state (set at launch). The scheduler is shared so the
  /// ticket can return budget after the service is gone; the clock is
  /// borrowed from it. deadline_ is an absolute clock instant (+inf =
  /// none); terminal_cause_ is 0 until the first cancel()/expiry wins the
  /// CAS (then the ReadOutcome cause, first writer wins).
  std::shared_ptr<ServiceScheduler> sched_;
  const ServiceClock* clock_ = nullptr;
  ServiceClass class_ = ServiceClass::Normal;
  TaskPriority task_priority_ = TaskPriority::Normal;
  double submit_time_ = 0.0;
  double deadline_ = std::numeric_limits<double>::infinity();
  std::atomic<std::uint8_t> terminal_cause_{0};
  std::atomic<bool> sched_queued_{false};  ///< In a scheduler queue now.

  std::vector<Slot> slots_;  ///< Sized once at submit; never reallocated.
  std::atomic<std::size_t> next_admit_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> peak_in_flight_{0};
  std::atomic<std::size_t> completed_{0};
  TaskGroup group_;

  Mutex seq_mutex_;  ///< Re-sequencer state below.
  std::size_t next_emit_ ASMCAP_GUARDED_BY(seq_mutex_) = 0;
  /// Thread currently inside the re-sequencer flush loop. A cancel or
  /// deadline sweep triggered from WITHIN a delivery (a callback calling
  /// cancel(), or a retire-driven grant expiring the ticket) re-enters
  /// emit() on the same thread; since `ready` is already set, the outer
  /// flush loop will deliver those reads — the re-entrant call just
  /// returns instead of self-deadlocking on seq_mutex_.
  std::atomic<std::thread::id> seq_owner_{};

  Mutex error_mutex_;
  std::exception_ptr error_ ASMCAP_GUARDED_BY(error_mutex_);

  bool recorded_ = false;             ///< Ledger flushed (control plane).
  std::atomic<bool> drained_{false};  ///< Results moved out by drain().
};

/// Knobs of one SearchService::submit call. (Namespace-scope so the
/// default member initializers are usable in submit's default argument.)
struct ServiceOptions {
  /// Pool width for the fan-out (same meaning as search_batch's
  /// `workers`; 0 = one per hardware thread).
  std::size_t workers = 1;
  /// Admission throttle: reads allowed in flight at once (the
  /// partial-result memory bound). 0 = 2 x the pool's worker count.
  std::size_t max_in_flight = 0;
  /// Priority class: grant order under contention (weighted fair share)
  /// and pool queue priority. Never affects results.
  ServiceClass service_class = ServiceClass::Normal;
  /// Relative deadline from submit, in ServiceClock seconds (0 = none;
  /// negative throws ServiceError{InvalidOptions}). When it passes, reads
  /// not yet merged reach Expired cooperatively — checked between tasks,
  /// never mid-kernel — and the whole ticket's state becomes Expired.
  double deadline_seconds = 0.0;
  /// Streaming callback: fires once per DONE read as it merges, with the
  /// read's index within the submission and its merged result (skipped
  /// for cancelled/expired/failed reads). Runs on worker threads; see the
  /// file comment.
  std::function<void(std::size_t, const QueryResult&)> on_complete;
  /// Deliver on_complete in read order instead of arrival order (a
  /// re-sequencer holds early finishers; delivery is serialised). A read
  /// returns its admission slot at DELIVERY, so the held-back backlog —
  /// results merged early but waiting their turn — also stays within
  /// max_in_flight rather than growing with the batch. Aborted reads
  /// pass through the re-sequencer like completed ones (marked ready,
  /// no callback), so a cancelled read ahead of the head can never
  /// wedge the window.
  bool in_order = false;
  /// Keep merged results for result()/drain(). Set false for pure
  /// streaming consumers: each result is released right after its
  /// callback, bounding total result memory by in-flight reads.
  bool keep_results = true;
};

class SearchService {
 public:
  using Options = ServiceOptions;
  using Config = ServiceConfig;

  /// Borrows `accelerator` (which must be loaded and must outlive the
  /// service and every ticket). The default Config — unlimited budget,
  /// unbounded queue — reproduces the pre-scheduler FIFO service
  /// bit-for-bit. Throws ServiceError{InvalidOptions} on a zero class
  /// weight.
  explicit SearchService(ShardedAccelerator& accelerator,
                         const Config& config = Config());

  /// Starts an asynchronous batch search and returns immediately, taking
  /// ownership of `reads` (pass an rvalue to avoid the copy). Width
  /// validation happens here (throws like search_batch); everything after
  /// runs on the accelerator's session pool. Blocks while the pending
  /// queue is full (Config::max_pending_reads); throws
  /// ServiceError{AdmissionFull} only if the submission alone exceeds the
  /// bound. Control-plane only.
  std::shared_ptr<SearchTicket> submit(std::vector<Sequence> reads,
                                       std::size_t threshold,
                                       StrategyMode mode,
                                       const Options& options = Options());

  /// Like submit(), but borrows the caller's vector instead of copying:
  /// `reads` must stay alive and unmodified until the ticket is done.
  /// This is what the blocking wrappers (search_batch, map_batch) use —
  /// their caller's vector outlives their wait by construction.
  std::shared_ptr<SearchTicket> submit_borrowed(
      const std::vector<Sequence>& reads, std::size_t threshold,
      StrategyMode mode, const Options& options = Options());

  /// Fail-fast admission: like submit()/submit_borrowed() but never
  /// blocks — throws ServiceError{AdmissionFull} when the pending queue
  /// cannot take the submission right now.
  std::shared_ptr<SearchTicket> try_submit(std::vector<Sequence> reads,
                                           std::size_t threshold,
                                           StrategyMode mode,
                                           const Options& options = Options());
  std::shared_ptr<SearchTicket> try_submit_borrowed(
      const std::vector<Sequence>& reads, std::size_t threshold,
      StrategyMode mode, const Options& options = Options());

  /// Scheduler observability (racy while work is in flight).
  std::size_t in_flight_reads() const { return sched_->in_flight_reads(); }
  std::size_t queued_reads() const { return sched_->queued_reads(); }

 private:
  void validate(const std::vector<Sequence>& reads) const;
  std::shared_ptr<SearchTicket> launch(std::shared_ptr<SearchTicket> ticket,
                                       const Options& options, bool block);

  ShardedAccelerator* accel_;
  std::shared_ptr<ServiceScheduler> sched_;
};

}  // namespace asmcap
