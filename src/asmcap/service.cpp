#include "asmcap/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/stats.h"

namespace asmcap {

namespace {
/// Stride-scheduling scale: a class with weight w advances its pass by
/// kStrideScale / w per grant, so the smallest pass rotates between
/// classes in ~weight proportion. Large enough that integer division
/// keeps distinct weights distinct.
constexpr std::uint64_t kStrideScale = std::uint64_t(1) << 20;

TaskPriority pool_priority_for(ServiceClass cls) {
  switch (cls) {
    case ServiceClass::Interactive:
      return TaskPriority::High;
    case ServiceClass::Bulk:
      return TaskPriority::Low;
    default:
      return TaskPriority::Normal;
  }
}
}  // namespace

// -------------------------------------------------------- ServiceScheduler

ServiceScheduler::ServiceScheduler(const ServiceConfig& config)
    : config_(config),
      clock_(config.clock ? config.clock : &steady_service_clock()),
      free_slots_(config.max_in_flight_reads) {
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    if (config_.class_weights[c] == 0)
      throw ServiceError(ServiceErrorKind::InvalidOptions,
                         "every class weight must be >= 1 (a zero weight "
                         "would starve that class forever)");
    stride_[c] = std::max<std::uint64_t>(
        1, kStrideScale / config_.class_weights[c]);
  }
}

bool ServiceScheduler::reserve(std::size_t reads, bool block) {
  MutexLock lock(mutex_);
  if (config_.max_pending_reads != 0) {
    // A submission larger than the whole queue can never fit: fail it in
    // both modes rather than letting the blocking path wait forever.
    if (reads > config_.max_pending_reads) return false;
    if (!block) {
      if (queued_ + reads > config_.max_pending_reads) return false;
    } else {
      while (queued_ + reads > config_.max_pending_reads)
        space_cv_.wait(mutex_);
    }
  }
  queued_ += reads;
  return true;
}

void ServiceScheduler::enlist(std::shared_ptr<SearchTicket> ticket) {
  {
    MutexLock lock(mutex_);
    enqueue_locked(ticket);
  }
  pump();
}

void ServiceScheduler::on_retire(const std::shared_ptr<SearchTicket>& ticket,
                                 std::size_t reads) {
  {
    MutexLock lock(mutex_);
    if (config_.max_in_flight_reads != 0) free_slots_ += reads;
    in_flight_ -= reads;
    enqueue_locked(ticket);
  }
  pump();
}

void ServiceScheduler::on_swept(std::size_t reads) {
  {
    MutexLock lock(mutex_);
    queued_ -= reads;
  }
  space_cv_.notify_all();
}

std::size_t ServiceScheduler::in_flight_reads() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

std::size_t ServiceScheduler::queued_reads() const {
  MutexLock lock(mutex_);
  return queued_;
}

void ServiceScheduler::enqueue_locked(
    const std::shared_ptr<SearchTicket>& ticket) {
  if (!ticket->sched_hungry()) return;
  if (ticket->sched_queued_.exchange(true, std::memory_order_relaxed)) return;
  const auto c = static_cast<std::size_t>(ticket->class_);
  // Lag capping: a class idle for a long stretch re-enters at the current
  // virtual time instead of its stale (tiny) pass, so it gets its fair
  // share going forward rather than an unbounded catch-up burst.
  if (queues_[c].empty()) pass_[c] = std::max(pass_[c], last_pass_);
  queues_[c].push_back(ticket);
}

void ServiceScheduler::pump() {
  // Grant loop. Policy decisions (class pick, budget, stride bookkeeping)
  // happen under the lock; claiming a block and submitting its pool task
  // run unlocked, so workers returning budget can pump concurrently
  // without convoying. Any number of threads may be in here at once; the
  // budget/queue state under the lock keeps them collectively within
  // bounds.
  const bool bounded = config_.max_in_flight_reads != 0;
  for (;;) {
    std::shared_ptr<SearchTicket> ticket;
    std::size_t cls = kServiceClassCount;
    std::size_t budget = kServiceBlockReads;
    {
      MutexLock lock(mutex_);
      if (bounded && free_slots_ == 0) return;
      for (std::size_t c = 0; c < kServiceClassCount; ++c)
        if (!queues_[c].empty() &&
            (cls == kServiceClassCount || pass_[c] < pass_[cls]))
          cls = c;
      if (cls == kServiceClassCount) return;
      ticket = std::move(queues_[cls].front());
      queues_[cls].pop_front();
      ticket->sched_queued_.store(false, std::memory_order_relaxed);
      // Hold up to one block of the global budget while the ticket
      // claims; what the block leaves unused comes back below.
      if (bounded) {
        budget = std::min(budget, free_slots_);
        free_slots_ -= budget;
      }
    }
    const SearchTicket::Block block = ticket->claim_block(budget);
    std::uint64_t seq = 0;
    {
      MutexLock lock(mutex_);
      if (bounded) free_slots_ += budget - block.count;
      if (block.count != 0) {
        // The stride is charged per read, so fair share counts reads, not
        // blocks.
        pass_[cls] += stride_[cls] * block.count;
        last_pass_ = pass_[cls];
        seq = admit_seq_ + 1;
        admit_seq_ += block.count;
        in_flight_ += block.count;
        queued_ -= block.count;
        enqueue_locked(ticket);
      }
    }
    // Nothing claimed: the ticket's window is full (a delivery of its own
    // re-enlists it) or it has nothing left to grant.
    if (block.count == 0) continue;
    space_cv_.notify_all();
    ticket->launch_block(block, seq);
  }
}

// ------------------------------------------------------------- SearchTicket

SearchTicket::SearchTicket(ShardedAccelerator& accelerator,
                           std::vector<Sequence> reads, std::size_t threshold,
                           StrategyMode mode)
    : accel_(&accelerator),
      owned_reads_(std::move(reads)),
      reads_(&owned_reads_),
      threshold_(threshold),
      mode_(mode),
      slots_(reads_->size()) {}

SearchTicket::SearchTicket(ShardedAccelerator& accelerator,
                           const std::vector<Sequence>* reads,
                           std::size_t threshold, StrategyMode mode)
    : accel_(&accelerator),
      reads_(reads),
      threshold_(threshold),
      mode_(mode),
      slots_(reads_->size()) {}

bool SearchTicket::ready(std::size_t i) const {
  if (i >= slots_.size())
    throw std::out_of_range("SearchTicket: read index out of range");
  return slots_[i].ready.load(std::memory_order_acquire);
}

ReadOutcome SearchTicket::outcome(std::size_t i) const {
  if (!ready(i)) return ReadOutcome::Pending;
  return static_cast<ReadOutcome>(
      slots_[i].outcome.load(std::memory_order_acquire));
}

const QueryResult& SearchTicket::result(std::size_t i) const {
  if (!ready(i))
    throw std::logic_error("SearchTicket: read has not completed yet");
  switch (static_cast<ReadOutcome>(
      slots_[i].outcome.load(std::memory_order_acquire))) {
    case ReadOutcome::Cancelled:
      throw ServiceError(ServiceErrorKind::Cancelled,
                         "read was discarded by cancel()");
    case ReadOutcome::Expired:
      throw ServiceError(ServiceErrorKind::Expired,
                         "read was discarded by the ticket deadline");
    case ReadOutcome::Failed:
      throw std::logic_error("SearchTicket: read failed (wait() rethrows)");
    default:
      break;
  }
  if (!keep_results_ || drained_.load(std::memory_order_acquire))
    throw std::logic_error("SearchTicket: result no longer held");
  return slots_[i].merged;
}

void SearchTicket::wait() {
  group_.wait();
  // Ledger totals flush once, sequentially in read order — whatever order
  // the reads completed in — BEFORE any error is rethrown: a read that
  // executed spent real energy whether or not its consumer callback later
  // failed, so consumer errors must not drop the batch from the ledger.
  // Only Done reads are recorded: a cancelled, expired, or failed read
  // never merged, so it books nothing — no phantom energy
  // (tests/test_scheduler.cpp pins this down).
  if (!recorded_) {
    for (const Slot& slot : slots_)
      if (slot.outcome.load(std::memory_order_acquire) ==
          static_cast<std::uint8_t>(ReadOutcome::Done)) {
        accel_->controller_.record(slot.ledger_plan, slot.ledger_latency,
                                   slot.ledger_energy);
        if (slot.banks_probed + slot.banks_pruned != 0)
          accel_->controller_.record_pruning(slot.banks_probed,
                                             slot.banks_pruned);
      }
    recorded_ = true;
  }
  std::exception_ptr error;
  {
    MutexLock lock(error_mutex_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<QueryResult> SearchTicket::drain() {
  if (!keep_results_)
    throw std::logic_error(
        "SearchTicket: drain() needs Options::keep_results");
  wait();
  switch (state()) {
    case TicketState::Cancelled:
      throw ServiceError(ServiceErrorKind::Cancelled,
                         "drain() on a cancelled ticket — poll result(i) / "
                         "outcome(i) for the reads that completed");
    case TicketState::Expired:
      throw ServiceError(ServiceErrorKind::Expired,
                         "drain() on an expired ticket — poll result(i) / "
                         "outcome(i) for the reads that completed");
    default:
      break;
  }
  if (drained_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("SearchTicket: already drained");
  std::vector<QueryResult> results;
  results.reserve(slots_.size());
  for (Slot& slot : slots_) results.push_back(std::move(slot.merged));
  return results;
}

void SearchTicket::cancel() {
  if (slots_.empty() || !sched_) return;  // empty ticket: nothing in flight
  abort_ticket(ReadOutcome::Cancelled);
}

TicketStats SearchTicket::stats() const {
  const std::vector<ReadTiming> timings = read_timings();  // terminal check
  TicketStats s;
  s.reads = timings.size();
  std::vector<double> queue_wait, execution, merge, completion;
  std::vector<double> model_latency, model_energy;
  for (const ReadTiming& t : timings) {
    switch (t.outcome) {
      case ReadOutcome::Done:
        ++s.done;
        break;
      case ReadOutcome::Cancelled:
        ++s.cancelled;
        break;
      case ReadOutcome::Expired:
        ++s.expired;
        break;
      default:
        ++s.failed;
        break;
    }
    if (t.outcome != ReadOutcome::Done) continue;
    queue_wait.push_back(t.started - t.submitted);
    execution.push_back(t.executed - t.started);
    merge.push_back(t.merged - t.executed);
    completion.push_back(t.merged - t.submitted);
    model_latency.push_back(t.model_latency_seconds);
    model_energy.push_back(t.model_energy_joules);
    s.booked_latency_seconds += t.model_latency_seconds;
    s.booked_energy_joules += t.model_energy_joules;
  }
  const auto percentiles = [](const std::vector<double>& xs) {
    LatencyPercentiles p;
    p.p50 = percentile_of(xs, 0.50);
    p.p95 = percentile_of(xs, 0.95);
    p.p99 = percentile_of(xs, 0.99);
    return p;
  };
  s.queue_wait = percentiles(queue_wait);
  s.execution = percentiles(execution);
  s.merge = percentiles(merge);
  s.completion = percentiles(completion);
  s.model_latency = percentiles(model_latency);
  s.model_energy = percentiles(model_energy);
  return s;
}

std::vector<ReadTiming> SearchTicket::read_timings() const {
  if (!done())
    throw ServiceError(ServiceErrorKind::NotTerminal,
                       "read_timings()/stats() need a terminal ticket — "
                       "wait() first");
  std::vector<ReadTiming> timings;
  timings.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    ReadTiming t;
    t.outcome =
        static_cast<ReadOutcome>(slot.outcome.load(std::memory_order_acquire));
    t.admit_seq = slot.admit_seq;
    t.submitted = submit_time_;
    t.started = slot.t_started;
    t.executed = slot.t_executed;
    t.merged = slot.t_merged;
    if (t.outcome == ReadOutcome::Done) {
      t.model_latency_seconds = slot.ledger_latency;
      t.model_energy_joules = slot.ledger_energy;
    }
    timings.push_back(t);
  }
  return timings;
}

void SearchTicket::record_error(std::exception_ptr error) {
  MutexLock lock(error_mutex_);
  if (!error_) error_ = error;
}

void SearchTicket::release_result(Slot& slot) { slot.merged = QueryResult(); }

bool SearchTicket::sched_hungry() const {
  return terminal_cause_.load(std::memory_order_acquire) == 0 &&
         next_admit_.load(std::memory_order_relaxed) < slots_.size() &&
         in_flight_.load(std::memory_order_acquire) < max_in_flight_;
}

bool SearchTicket::past_deadline() const {
  return deadline_ != std::numeric_limits<double>::infinity() &&
         clock_->now() >= deadline_;
}

ReadOutcome SearchTicket::abort_cause() {
  if (terminal_cause_.load(std::memory_order_acquire) == 0 && past_deadline())
    abort_ticket(ReadOutcome::Expired);
  return static_cast<ReadOutcome>(
      terminal_cause_.load(std::memory_order_acquire));
}

void SearchTicket::abort_ticket(ReadOutcome cause) {
  if (done()) return;  // cancel after completion: acknowledged as a no-op
  std::uint8_t expected = 0;
  if (!terminal_cause_.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(cause),
          std::memory_order_acq_rel))
    return;  // first cancel/expiry wins; the rest are idempotent
  sweep_pending();
}

void SearchTicket::sweep_pending() {
  // Claim every not-yet-granted read through the SAME next_admit_ counter
  // the grant path uses — each index is claimed exactly once, by the
  // sweep or by a grant, never both — and resolve it terminally: no RNG
  // fork, no execution, no ledger entry, no admission budget. Queue space
  // returns in one call so a blocked submit() can proceed. A swept read
  // passes through the re-sequencer like a delivered one, so it can never
  // wedge the window.
  const auto cause = static_cast<std::uint8_t>(
      terminal_cause_.load(std::memory_order_acquire));
  std::size_t swept = 0;
  for (;;) {
    const std::size_t i = next_admit_.fetch_add(1, std::memory_order_relaxed);
    if (i >= slots_.size()) break;
    Slot& slot = slots_[i];
    slot.t_merged = clock_->now();
    slot.outcome.store(cause, std::memory_order_release);
    slot.ready.store(true, std::memory_order_release);
    ++swept;
  }
  if (swept == 0) return;
  if (in_order_) return_budget(flush_in_order());
  sched_->on_swept(swept);
  finish_reads(swept);
}

SearchTicket::Block SearchTicket::claim_block(std::size_t budget) {
  // Cooperative cancel/deadline check at the grant boundary: once the
  // ticket is aborted, its sweep owns every read not yet claimed.
  if (abort_cause() != ReadOutcome::Pending) return {};
  const std::size_t n = slots_.size();
  const std::size_t workers = pool_->workers();
  const auto share = [workers](std::size_t reads) {
    return (reads + workers - 1) / workers;
  };
  // A block takes at most one worker's share of the window and of the
  // global budget, or a window smaller than a block per worker would
  // leave workers idle (no limit at the default window).
  if (const std::size_t global = sched_->config().max_in_flight_reads)
    budget = std::min(budget, share(global));
  budget = std::min(budget, share(max_in_flight_));
  // Reserve window slots FIRST, then claim read indices: concurrent pumps
  // can both grant to this ticket, and reserving before claiming keeps
  // peak_in_flight strictly within max_in_flight.
  std::size_t in_flight = in_flight_.load(std::memory_order_acquire);
  std::size_t want = 0;
  do {
    const std::size_t next = next_admit_.load(std::memory_order_relaxed);
    const std::size_t unclaimed = next < n ? n - next : 0;
    // The last term spreads a ticket's tail over every worker.
    want = std::min({budget, max_in_flight_ - in_flight, unclaimed,
                     share(unclaimed)});
    if (want == 0) return {};
  } while (!in_flight_.compare_exchange_weak(in_flight, in_flight + want,
                                             std::memory_order_acq_rel));
  Block block;
  block.first = next_admit_.load(std::memory_order_relaxed);
  do {
    block.count = block.first < n ? std::min(want, n - block.first) : 0;
  } while (block.count != 0 &&
           !next_admit_.compare_exchange_weak(
               block.first, block.first + block.count,
               std::memory_order_relaxed));
  if (block.count != want)
    in_flight_.fetch_sub(want - block.count, std::memory_order_relaxed);
  if (block.count == 0) return {};
  const std::size_t now = in_flight + block.count;
  std::size_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now > peak && !peak_in_flight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return block;
}

void SearchTicket::launch_block(Block block, std::uint64_t admit_seq) {
  for (std::size_t j = 0; j < block.count; ++j)
    slots_[block.first + j].admit_seq = admit_seq + j;
  try {
    auto self = shared_from_this();
    pool_->submit([self, block] { self->run_block(block); }, task_priority_);
  } catch (...) {
    // The task never launched: fail its reads here, as the task would
    // have resolved them, and return their budget through the same end.
    record_error(std::current_exception());
    for (std::size_t i = block.first; i < block.first + block.count; ++i)
      complete_read(i, ReadOutcome::Failed);
    end_block(block);
  }
}

void SearchTicket::run_block(Block block) {
  std::vector<QueryResult> partials;  // per-bank staging, reused per read
  for (std::size_t i = block.first; i < block.first + block.count; ++i)
    run_read(i, partials);
  end_block(block);
}

void SearchTicket::run_read(std::size_t i,
                            std::vector<QueryResult>& partials) {
  Slot& slot = slots_[i];
  slot.t_started = clock_->now();
  // Cooperative cancel/deadline checks: before the read and before each
  // bank, never mid-kernel. An aborted read frees its staging and books
  // nothing.
  ReadOutcome out = abort_cause();
  if (out == ReadOutcome::Pending) {
    try {
      // The batch recipe (docs/determinism.md): one plan per read, one
      // RNG stream forked from (master state, epoch, read index). The
      // probe happens AFTER the fork, so pruning never shifts streams.
      const ExecutionPlan plan = accel_->controller_.planner().build(
          (*reads_)[i], threshold_, accel_->rates_, mode_);
      const Rng rng =
          master_.fork((epoch_ << 32) | static_cast<std::uint64_t>(i));
      const std::vector<std::uint32_t> shards =
          accel_->probe_shards(*db_, plan);
      if (accel_->config_.pruning.enabled) {
        slot.banks_probed = shards.size();
        slot.banks_pruned = db_->banks.size() - shards.size();
      }
      partials.resize(shards.size());
      for (std::size_t j = 0; j < shards.size(); ++j) {
        out = abort_cause();
        if (out != ReadOutcome::Pending) break;
        partials[j] = db_->banks[shards[j]]->execute(plan, rng);
      }
      slot.t_executed = clock_->now();
      if (out == ReadOutcome::Pending) {
        // Ascending shard order: the floating-point summation order of
        // the router's search(). A read every bank pruned merges to the
        // all-false shape with the plan's pass latency.
        slot.merged = accel_->merge_subset(*db_, plan, partials, shards);
        out = ReadOutcome::Done;
      }
    } catch (...) {
      record_error(std::current_exception());
      out = ReadOutcome::Failed;
    }
  }
  complete_read(i, out);
}

void SearchTicket::complete_read(std::size_t i, ReadOutcome out) {
  Slot& slot = slots_[i];
  slot.t_merged = clock_->now();
  if (out == ReadOutcome::Done) {
    slot.ledger_plan = slot.merged.plan;
    slot.ledger_latency = slot.merged.latency_seconds;
    slot.ledger_energy = slot.merged.energy_joules;
  } else {
    release_result(slot);  // nothing booked, nothing held
  }
  slot.outcome.store(static_cast<std::uint8_t>(out),
                     std::memory_order_release);
  slot.ready.store(true, std::memory_order_release);
  // Arrival order delivers as the read merges; in order waits for the
  // block's re-sequencer pass.
  if (!in_order_) deliver(i);
}

void SearchTicket::end_block(Block block) {
  // A read returns its admission budget at DELIVERY, not at merge: with
  // the re-sequencer, a read merged early but held for its turn still
  // counts against max_in_flight, so the undelivered backlog (and its
  // held results) stays bounded by the window. One scheduler call returns
  // the budget of every read this pass delivered, so the next grant sees
  // a whole free block. Finishing comes last: wait() returning implies
  // every delivery is done.
  return_budget(in_order_ ? flush_in_order() : block.count);
  finish_reads(block.count);
}

std::size_t SearchTicket::flush_in_order() {
  // Whoever ends a block flushes the longest ready prefix. Setting
  // `ready` before taking seq_mutex_ guarantees a read is never stranded
  // — if this scan stops short of read i, the thread blocking the prefix
  // will see i ready when its own scan runs. Swept reads are marked ready
  // like completed ones (no callback), so a cancelled read ahead of the
  // head flushes through instead of wedging the window. A re-entrant call
  // on the flushing thread (a callback calling cancel()) returns at once:
  // its reads are already marked ready, so the enclosing loop delivers
  // them.
  if (seq_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id())
    return 0;
  std::size_t admitted = 0;
  MutexLock lock(seq_mutex_);
  seq_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  while (next_emit_ < slots_.size() &&
         slots_[next_emit_].ready.load(std::memory_order_acquire)) {
    deliver(next_emit_);
    if (slots_[next_emit_].admit_seq != 0) ++admitted;
    ++next_emit_;
  }
  seq_owner_.store(std::thread::id(), std::memory_order_relaxed);
  return admitted;
}

void SearchTicket::deliver(std::size_t i) {
  Slot& slot = slots_[i];
  if (on_complete_ && slot.outcome.load(std::memory_order_acquire) ==
                          static_cast<std::uint8_t>(ReadOutcome::Done)) {
    try {
      on_complete_(i, slot.merged);
    } catch (...) {
      record_error(std::current_exception());
    }
  }
  // Pure streaming consumers (keep_results == false) asked for
  // O(in-flight) memory: release as soon as the read is delivered.
  if (!keep_results_) release_result(slot);
}

void SearchTicket::return_budget(std::size_t reads) {
  if (reads == 0) return;
  in_flight_.fetch_sub(reads, std::memory_order_acq_rel);
  sched_->on_retire(shared_from_this(), reads);
}

void SearchTicket::finish_reads(std::size_t reads) {
  const std::size_t done =
      completed_.fetch_add(reads, std::memory_order_acq_rel) + reads;
  // Last read of the submission: this ticket no longer has in-flight
  // tasks, so it stops pinning the session pool against replacement, and
  // nothing reads its epoch any more, so it lets go of that pin too (a
  // mutation after wait() may then write in place what the ticket read).
  if (done == slots_.size()) {
    accel_->pool_.unpin();
    db_.reset();
  }
  group_.finish(reads);
}

// ------------------------------------------------------------ SearchService

SearchService::SearchService(ShardedAccelerator& accelerator,
                             const Config& config)
    : accel_(&accelerator),
      sched_(std::make_shared<ServiceScheduler>(config)) {}

void SearchService::validate(const std::vector<Sequence>& reads) const {
  accel_->check_loaded();
  for (const Sequence& read : reads)
    if (read.size() != accel_->config_.array_cols)
      throw std::invalid_argument("SearchService: read width mismatch");
}

std::shared_ptr<SearchTicket> SearchService::submit(
    std::vector<Sequence> reads, std::size_t threshold, StrategyMode mode,
    const Options& options) {
  validate(reads);
  return launch(std::shared_ptr<SearchTicket>(new SearchTicket(
                    *accel_, std::move(reads), threshold, mode)),
                options, /*block=*/true);
}

std::shared_ptr<SearchTicket> SearchService::submit_borrowed(
    const std::vector<Sequence>& reads, std::size_t threshold,
    StrategyMode mode, const Options& options) {
  validate(reads);
  return launch(std::shared_ptr<SearchTicket>(
                    new SearchTicket(*accel_, &reads, threshold, mode)),
                options, /*block=*/true);
}

std::shared_ptr<SearchTicket> SearchService::try_submit(
    std::vector<Sequence> reads, std::size_t threshold, StrategyMode mode,
    const Options& options) {
  validate(reads);
  return launch(std::shared_ptr<SearchTicket>(new SearchTicket(
                    *accel_, std::move(reads), threshold, mode)),
                options, /*block=*/false);
}

std::shared_ptr<SearchTicket> SearchService::launch(
    std::shared_ptr<SearchTicket> ticket, const Options& options, bool block) {
  if (options.deadline_seconds < 0.0)
    throw ServiceError(ServiceErrorKind::InvalidOptions,
                       "deadline_seconds must be >= 0 (0 = no deadline)");
  ticket->keep_results_ = options.keep_results;
  // Without a callback there is nothing to deliver in order.
  ticket->in_order_ = options.in_order && options.on_complete;
  ticket->on_complete_ = options.on_complete;
  // An empty submission is already done and leaves the batch epoch
  // untouched.
  if (ticket->slots_.empty()) return ticket;

  // Admission control FIRST, before any side effect (pool pinning, epoch
  // bump): a rejected submission leaves the accelerator exactly as it was,
  // so a retried submission draws the very streams this one would have.
  if (!sched_->reserve(ticket->slots_.size(), block))
    throw ServiceError(
        ServiceErrorKind::AdmissionFull,
        ticket->slots_.size() > sched_->config().max_pending_reads
            ? "submission larger than max_pending_reads can never be admitted"
            : "pending-read queue is full (try again or use submit())");
  ticket->sched_ = sched_;
  ticket->clock_ = &sched_->clock();
  ticket->class_ = options.service_class;
  ticket->task_priority_ = pool_priority_for(options.service_class);

  // Pin the session pool for the ticket's lifetime: while pinned, a
  // wider worker_pool() request is clamped to the live pool instead of
  // replacing it under this ticket's running tasks (unpinned by
  // finish_reads when the last read completes).
  ticket->pool_ = &accel_->worker_pool(options.workers);
  accel_->pool_.pin();

  // Pin the database epoch on the control thread: every worker-side read
  // goes through this snapshot, so mutations published after launch are
  // invisible to this ticket (they clone what it reads instead of writing
  // it, and the snapshot's banks stay alive until its last read is done).
  ticket->db_ = accel_->pin();

  // Snapshot the master stream on the control thread: workers fork from
  // the copy, so nothing in this ticket ever touches the live rng_.
  ticket->master_ = accel_->rng_;
  ticket->epoch_ = ++accel_->batch_epoch_;
  std::size_t cap = options.max_in_flight;
  if (cap == 0) cap = 2 * ticket->pool_->workers() * kServiceBlockReads;
  ticket->max_in_flight_ = cap;
  ticket->submit_time_ = ticket->clock_->now();
  if (options.deadline_seconds > 0.0)
    ticket->deadline_ = ticket->submit_time_ + options.deadline_seconds;
  ticket->group_.start(ticket->slots_.size());
  sched_->enlist(ticket);
  return ticket;
}

}  // namespace asmcap
