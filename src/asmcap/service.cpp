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

void ServiceScheduler::on_retire(const std::shared_ptr<SearchTicket>& ticket) {
  {
    MutexLock lock(mutex_);
    if (config_.max_in_flight_reads != 0) ++free_slots_;
    --in_flight_;
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
  // happen under the lock; the grant itself — claiming a read and
  // submitting its pool task — runs unlocked, so workers retiring reads
  // can pump concurrently without convoying. Any number of threads may be
  // in here at once; the budget/queue state under the lock keeps them
  // collectively within bounds.
  const bool bounded = config_.max_in_flight_reads != 0;
  for (;;) {
    std::shared_ptr<SearchTicket> ticket;
    std::uint64_t seq = 0;
    {
      MutexLock lock(mutex_);
      if (bounded && free_slots_ == 0) return;
      std::size_t cls = kServiceClassCount;
      for (std::size_t c = 0; c < kServiceClassCount; ++c)
        if (!queues_[c].empty() &&
            (cls == kServiceClassCount || pass_[c] < pass_[cls]))
          cls = c;
      if (cls == kServiceClassCount) return;
      ticket = std::move(queues_[cls].front());
      queues_[cls].pop_front();
      ticket->sched_queued_.store(false, std::memory_order_relaxed);
      pass_[cls] += stride_[cls];
      last_pass_ = pass_[cls];
      seq = ++admit_seq_;
      if (bounded) --free_slots_;
      ++in_flight_;  // provisional; undone below unless a read launched
    }
    const SearchTicket::Grant grant = ticket->grant_one(seq);
    bool freed_queue_space = false;
    {
      MutexLock lock(mutex_);
      switch (grant) {
        case SearchTicket::Grant::Launched:
          --queued_;
          freed_queue_space = true;
          break;
        case SearchTicket::Grant::Aborted:
          // A read WAS claimed (left the queue) but is already terminal:
          // no budget held, and the ticket may still have grantable reads
          // (a failed pool submit aborts one read, not the ticket).
          if (bounded) ++free_slots_;
          --in_flight_;
          --queued_;
          freed_queue_space = true;
          break;
        case SearchTicket::Grant::Declined:
        case SearchTicket::Grant::Exhausted:
          // Nothing was claimed. Declined tickets re-enter via the retire
          // of one of their own in-flight reads; exhausted/aborted ones
          // never need to.
          if (bounded) ++free_slots_;
          --in_flight_;
          break;
      }
      if (grant == SearchTicket::Grant::Launched ||
          grant == SearchTicket::Grant::Aborted)
        enqueue_locked(ticket);
    }
    if (freed_queue_space) space_cv_.notify_all();
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
  // fork, no execution, no ledger entry. Their queue space is returned in
  // one batch below so a blocked submit() can proceed.
  const auto cause = static_cast<ReadOutcome>(
      terminal_cause_.load(std::memory_order_acquire));
  std::size_t swept = 0;
  for (;;) {
    const std::size_t i = next_admit_.fetch_add(1, std::memory_order_relaxed);
    if (i >= slots_.size()) break;
    abort_slot(i, cause, /*counts_in_flight=*/false);
    ++swept;
  }
  if (swept != 0 && sched_) sched_->on_swept(swept);
}

void SearchTicket::abort_slot(std::size_t i, ReadOutcome cause,
                              bool counts_in_flight) {
  // Resolve read i terminally without executing it (or, for a read whose
  // task already started, without merging it). Publish `retired` before
  // `ready` when the read holds no admission budget, so the re-sequencer
  // delivering it cannot double-return a slot; a read that DOES hold
  // budget (counts_in_flight) returns it through the normal retire path —
  // which also tells the scheduler, keeping the window live. Either way
  // the read passes through emit(), so an aborted read ahead of the
  // in-order re-sequencer head flushes the prefix like a completed one
  // and can never wedge the window.
  Slot& slot = slots_[i];
  slot.t_merged = clock_ ? clock_->now() : 0.0;
  slot.outcome.store(static_cast<std::uint8_t>(cause),
                     std::memory_order_release);
  if (!counts_in_flight) slot.retired.store(true, std::memory_order_release);
  slot.ready.store(true, std::memory_order_release);
  emit(i);
  finish_one();
}

SearchTicket::Grant SearchTicket::grant_one(std::uint64_t admit_seq) {
  if (terminal_cause_.load(std::memory_order_acquire) != 0)
    return Grant::Exhausted;  // the abort sweep owns every remaining read
  // Reserve a window slot FIRST, then claim a read index: concurrent
  // pumps can both grant to this ticket, and reserving before claiming
  // keeps peak_in_flight strictly within max_in_flight.
  std::size_t in_flight = in_flight_.load(std::memory_order_acquire);
  for (;;) {
    if (in_flight >= max_in_flight_) return Grant::Declined;
    if (in_flight_.compare_exchange_weak(in_flight, in_flight + 1,
                                         std::memory_order_acq_rel))
      break;
  }
  const std::size_t i = next_admit_.fetch_add(1, std::memory_order_relaxed);
  if (i >= slots_.size()) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return Grant::Exhausted;
  }
  const std::size_t now = in_flight + 1;
  std::size_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now > peak && !peak_in_flight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  Slot& slot = slots_[i];
  slot.admit_seq = admit_seq;
  // Cooperative cancel/deadline check at the grant boundary: a read
  // claimed after the ticket aborted (or exactly as the deadline passes)
  // resolves terminally without ever launching.
  if (terminal_cause_.load(std::memory_order_acquire) == 0 && past_deadline())
    abort_ticket(ReadOutcome::Expired);
  if (const std::uint8_t cause =
          terminal_cause_.load(std::memory_order_acquire)) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    abort_slot(i, static_cast<ReadOutcome>(cause), /*counts_in_flight=*/false);
    return Grant::Aborted;
  }
  auto self = shared_from_this();
  try {
    pool_->submit([self, i] { self->run_read(i); }, task_priority_);
  } catch (...) {
    record_error(std::current_exception());
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    abort_slot(i, ReadOutcome::Failed, /*counts_in_flight=*/false);
    return Grant::Aborted;
  }
  return Grant::Launched;
}

void SearchTicket::run_read(std::size_t i) {
  Slot& slot = slots_[i];
  slot.t_started = clock_->now();
  // Cooperative cancel/deadline check at the read-task boundary.
  if (terminal_cause_.load(std::memory_order_acquire) == 0 && past_deadline())
    abort_ticket(ReadOutcome::Expired);
  if (const std::uint8_t cause =
          terminal_cause_.load(std::memory_order_acquire)) {
    abort_slot(i, static_cast<ReadOutcome>(cause), /*counts_in_flight=*/true);
    return;
  }
  std::size_t selected = 0;
  try {
    // The batch recipe (docs/determinism.md): one plan per read, one RNG
    // stream forked from (master state, epoch, read index).
    // The probe happens AFTER the fork, so pruning never shifts streams.
    slot.plan = accel_->controller_.planner().build(
        (*reads_)[i], threshold_, accel_->rates_, mode_);
    slot.rng = master_.fork((epoch_ << 32) | static_cast<std::uint64_t>(i));
    slot.shard_ids = accel_->probe_shards(*db_, slot.plan);
    selected = slot.shard_ids.size();
    if (accel_->config_.pruning.enabled) {
      slot.banks_probed = selected;
      slot.banks_pruned = db_->banks.size() - selected;
    }
    if (selected == 0) {
      // Every bank pruned: nothing executes, but the read still merges to
      // its deterministic all-false shape with the plan's pass latency.
      slot.merged = accel_->empty_result(*db_, slot.plan);
      slot.t_executed = clock_->now();
      complete_read(i, ReadOutcome::Done);
      return;
    }
    if (selected == 1 && db_->banks.size() == 1 &&
        db_->banks[0]->identity_layout() &&
        db_->banks[0]->loaded_segments() == db_->id_space) {
      // Single-bank router with the identity layout (slot s holds global
      // id s — always true frozen): the bank's slot-indexed result is
      // already the global result — no partial staging, no rebase/merge.
      // (A read pruned down to ONE bank of many still stages, and a
      // mutated single bank must rebase through its directory.)
      slot.merged = db_->banks[0]->execute(slot.plan, slot.rng);
      slot.t_executed = clock_->now();
      complete_read(i, ReadOutcome::Done);
      return;
    }
    slot.partials.resize(selected);
    slot.shards_left.store(selected, std::memory_order_relaxed);
  } catch (...) {
    record_error(std::current_exception());
    complete_read(i, ReadOutcome::Failed);
    return;
  }
  std::size_t launched = 0;
  try {
    for (std::size_t j = 1; j < selected; ++j) {
      auto self = shared_from_this();
      pool_->submit([self, i, j] { self->run_shard(i, j); }, task_priority_);
      ++launched;
    }
  } catch (...) {
    // A task that never launched will never decrement shards_left: take
    // its decrements here. Slot 0 below is still outstanding, so this
    // cannot complete the read — no double-completion is possible.
    record_error(std::current_exception());
    slot.outcome.store(static_cast<std::uint8_t>(ReadOutcome::Failed),
                       std::memory_order_release);
    slot.shards_left.fetch_sub(selected - 1 - launched,
                               std::memory_order_acq_rel);
  }
  run_shard(i, 0);  // this task doubles as the first shard's executor
}

void SearchTicket::run_shard(std::size_t i, std::size_t s) {
  // `s` indexes the slot's dispatched-shard list, not the bank array: the
  // read runs only on its probe survivors.
  Slot& slot = slots_[i];
  // Cooperative cancel/deadline check at the shard-task boundary: once
  // the ticket is aborted, remaining shards skip their execute entirely
  // (the read still resolves below, at its last shard).
  if (terminal_cause_.load(std::memory_order_acquire) == 0 && past_deadline())
    abort_ticket(ReadOutcome::Expired);
  if (terminal_cause_.load(std::memory_order_acquire) == 0) {
    try {
      slot.partials[s] =
          db_->banks[slot.shard_ids[s]]->execute(slot.plan, slot.rng);
    } catch (...) {
      record_error(std::current_exception());
      slot.outcome.store(static_cast<std::uint8_t>(ReadOutcome::Failed),
                         std::memory_order_release);
    }
  }
  if (slot.shards_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last shard of this read: decide its terminal outcome. If every
    // shard executed cleanly and the ticket is still live, merge in
    // ascending shard order (the floating-point summation order of the
    // router's search(), however the shards actually finished). A
    // merge failure (allocation) is recorded like an execute failure so
    // it surfaces at wait() instead of escaping the pool task. An aborted
    // read frees its staging and books nothing.
    slot.t_executed = clock_->now();
    auto out = static_cast<ReadOutcome>(
        slot.outcome.load(std::memory_order_acquire));
    if (out == ReadOutcome::Pending) {
      if (const std::uint8_t cause =
              terminal_cause_.load(std::memory_order_acquire)) {
        out = static_cast<ReadOutcome>(cause);
      } else {
        try {
          slot.merged =
              accel_->merge_subset(*db_, slot.partials, slot.shard_ids);
          out = ReadOutcome::Done;
        } catch (...) {
          record_error(std::current_exception());
          out = ReadOutcome::Failed;
        }
      }
    }
    std::vector<QueryResult>().swap(slot.partials);
    std::vector<std::uint32_t>().swap(slot.shard_ids);
    complete_read(i, out);
  }
}

void SearchTicket::complete_read(std::size_t i, ReadOutcome out) {
  Slot& slot = slots_[i];
  slot.t_merged = clock_->now();
  // Every execute of this read is done: free its plan (and the read
  // views it carries) now, not when the ticket dies.
  slot.plan = ExecutionPlan();
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
  emit(i);       // delivery retires the read (returns admission budget)
  finish_one();  // last: wait() returning implies emission is done
}

void SearchTicket::retire(std::size_t i) {
  // Returns the read's admission budget exactly once — at DELIVERY, not
  // at merge: with the in-order re-sequencer, a read merged early but
  // held for its turn still counts against max_in_flight, so the
  // undelivered backlog (and its held results) stays bounded by the
  // window instead of growing to O(batch). The scheduler is told every
  // time: the global budget slot frees and this ticket (or a higher-pass
  // one) gets the next grant.
  if (slots_[i].retired.exchange(true, std::memory_order_acq_rel)) return;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  if (sched_) sched_->on_retire(shared_from_this());
}

void SearchTicket::finish_one() {
  const std::size_t done =
      completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Last read of the submission: this ticket no longer has in-flight
  // tasks, so it stops pinning the session pool against replacement.
  if (done == slots_.size()) accel_->pool_.unpin();
  group_.finish();
}

void SearchTicket::emit(std::size_t i) {
  if (!on_complete_) {
    // Pure pollers with keep_results == false asked for O(in-flight)
    // memory too: release as soon as the read merges.
    if (!keep_results_) release_result(slots_[i]);
    retire(i);
    return;
  }
  const auto deliver = [this](std::size_t index, Slot& slot) {
    if (slot.outcome.load(std::memory_order_acquire) ==
        static_cast<std::uint8_t>(ReadOutcome::Done)) {
      try {
        on_complete_(index, slot.merged);
      } catch (...) {
        record_error(std::current_exception());
      }
    }
    if (!keep_results_) release_result(slot);
    retire(index);
  };
  if (!in_order_) {
    deliver(i, slots_[i]);
    return;
  }
  // Re-sequencer: whoever completes a read flushes the longest ready
  // prefix. Setting `ready` before taking seq_mutex_ guarantees a read is
  // never stranded — if this thread's scan stops short of read i, the
  // thread blocking the prefix will see i ready when its own scan runs.
  // Aborted reads are marked ready like completed ones (no callback), so
  // a cancelled read ahead of the head flushes through instead of
  // wedging the window. A re-entrant emit on the flushing thread itself
  // (a callback calling cancel(); a retire-driven grant expiring the
  // ticket mid-flush) returns immediately — its reads are already marked
  // ready, so the enclosing flush loop delivers them.
  if (seq_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id())
    return;
  MutexLock lock(seq_mutex_);
  seq_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  while (next_emit_ < slots_.size() &&
         slots_[next_emit_].ready.load(std::memory_order_acquire)) {
    deliver(next_emit_, slots_[next_emit_]);
    ++next_emit_;
  }
  seq_owner_.store(std::thread::id(), std::memory_order_relaxed);
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

std::shared_ptr<SearchTicket> SearchService::try_submit_borrowed(
    const std::vector<Sequence>& reads, std::size_t threshold,
    StrategyMode mode, const Options& options) {
  validate(reads);
  return launch(std::shared_ptr<SearchTicket>(
                    new SearchTicket(*accel_, &reads, threshold, mode)),
                options, /*block=*/false);
}

std::shared_ptr<SearchTicket> SearchService::launch(
    std::shared_ptr<SearchTicket> ticket, const Options& options, bool block) {
  if (options.deadline_seconds < 0.0)
    throw ServiceError(ServiceErrorKind::InvalidOptions,
                       "deadline_seconds must be >= 0 (0 = no deadline)");
  ticket->keep_results_ = options.keep_results;
  ticket->in_order_ = options.in_order;
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
  // finish_one when the last read completes).
  ticket->pool_ = &accel_->worker_pool(options.workers);
  accel_->pool_.pin();

  // Capture the database epoch on the control thread: every worker-side
  // read goes through this snapshot, so mutations published after launch
  // are invisible to this ticket (and the snapshot's shared banks stay
  // alive until the ticket completes).
  ticket->db_ = accel_->db_;

  // Snapshot the master stream on the control thread: workers fork from
  // the copy, so nothing in this ticket ever touches the live rng_.
  ticket->master_ = accel_->rng_;
  ticket->epoch_ = ++accel_->batch_epoch_;
  std::size_t cap = options.max_in_flight;
  if (cap == 0) cap = 2 * ticket->pool_->workers();
  ticket->max_in_flight_ = cap;
  ticket->submit_time_ = ticket->clock_->now();
  if (options.deadline_seconds > 0.0)
    ticket->deadline_ = ticket->submit_time_ + options.deadline_seconds;
  ticket->group_.start(ticket->slots_.size());
  sched_->enlist(ticket);
  return ticket;
}

}  // namespace asmcap
