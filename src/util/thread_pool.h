#pragma once
// Small persistent worker pool: the one executor behind every parallel
// path (the router's bank fan-out, the service's read blocks, the batch
// baselines and the evaluation sweeps).
//
// The pool has one source of work: three FIFO queues, one per
// TaskPriority, popped High-first. On a threaded pool the spawned threads
// pop them; on a threadless pool (workers == 1) the thread that submits
// pops them until they are empty. Two entry points feed the queues:
//
//  * submit — one detached task. Tasks may submit further tasks, and the
//    caller tracks their completion through a TaskGroup. This is the
//    asynchronous substrate of the streaming SearchService.
//  * parallel_for — a dense index range, queued as High tasks that the
//    caller waits for. Results are written by index, so the output of a
//    parallel map never depends on scheduling order or on how many
//    workers ran it. That property (plus per-index RNG forking at the
//    call sites) is what makes batched searches reproducible regardless
//    of thread count.
//
// Ownership: a ThreadPool owns its threads; SessionPool (below) owns one
// lazily-built ThreadPool per session owner (accelerator, sharded router).
// Thread-safety: submit() and parallel_for() may be called from any
// thread, several at once. submit() may also be called from inside a
// running task; parallel_for() must never be called from a task of the
// same pool: its caller blocks until the pool's threads have run its
// tasks, so a task that waits on them holds one of those threads, and
// enough such tasks deadlock the pool. TaskGroup is fully thread-safe.
// The lock protocol is statically checked: the queues and flags below
// are ASMCAP_GUARDED_BY the pool mutex (Clang -Werror=thread-safety; see
// util/thread_annotations.h).
//
// See docs/architecture.md for where the pool sits in the engine layering.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace asmcap {

/// Priority class of a queued task. Executors always pop the
/// lowest-numbered non-empty queue, FIFO within a class: a High task
/// enqueued behind a thousand Low tasks runs as soon as an executor frees
/// up, without preempting tasks already executing. This is the pool-level
/// substrate the service tier's interactive-over-bulk scheduling stands
/// on (asmcap/service.h maps ServiceClass onto it).
enum class TaskPriority : std::uint8_t { High = 0, Normal = 1, Low = 2 };
inline constexpr std::size_t kTaskPriorityCount = 3;

/// A waitable completion counter for detached tasks: the dispatcher calls
/// start() per task (before submitting it), every task calls finish()
/// exactly once (success or failure), and any thread may wait() for the
/// count to drain to zero. Thread-safe; reusable after it drains.
class TaskGroup {
 public:
  /// Registers `n` outstanding tasks. Call BEFORE the matching submit()s,
  /// or a fast task could drain the group below a concurrent wait().
  void start(std::size_t n = 1) ASMCAP_EXCLUDES(mutex_);

  /// Marks `n` tasks complete; wakes waiters when the group drains.
  void finish(std::size_t n = 1) ASMCAP_EXCLUDES(mutex_);

  /// Blocks until every started task has finished (returns immediately if
  /// none are outstanding).
  void wait() ASMCAP_EXCLUDES(mutex_);

  /// Outstanding (started but not finished) tasks, racy by nature: only
  /// pending() == 0 observed after wait() is a stable statement.
  std::size_t pending() const ASMCAP_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::size_t pending_ ASMCAP_GUARDED_BY(mutex_) = 0;
};

class ThreadPool {
 public:
  /// A pool of `workers` concurrent executors: that many spawned threads
  /// pop the queues. `workers == 1` spawns no threads, and the submitting
  /// thread runs everything; `workers == 0` uses hardware_workers().
  explicit ThreadPool(std::size_t workers = 0);
  /// Runs every queued task, then joins the threads.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (the spawned threads, or 1 when threadless).
  std::size_t workers() const {
    return threads_.empty() ? 1 : threads_.size();
  }

  /// Runs fn(i) for every i in [0, count), blocking until all complete.
  /// A single index, or any call on a threadless pool, runs inline on the
  /// caller; otherwise the caller queues min(count, workers()) High tasks
  /// that claim indices from one counter, and waits. High tasks already
  /// queued run first. fn must be safe to call concurrently for distinct
  /// indices. The first exception thrown by any index is rethrown here
  /// (remaining indices may or may not run).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      ASMCAP_EXCLUDES(mutex_);

  /// Queues one detached task in its priority class. On a threaded pool
  /// the spawned threads run it. On a threadless pool the calling thread
  /// then runs the queues until they are empty, unless some thread
  /// already runs them (as when a task submits): a task chain runs
  /// iteratively, at constant stack depth, and the tasks queued during
  /// one run go in priority order. Tasks SHOULD NOT throw — there is no completion
  /// channel to carry an exception: on a threaded pool a throwing task
  /// terminates the process; on a threadless pool the exception
  /// propagates to the submit() call that was running the queues (the
  /// tasks still queued run at the next submit, or at destruction).
  /// Callers such as SearchService catch inside the task and report at
  /// wait().
  void submit(std::function<void()> task,
              TaskPriority priority = TaskPriority::Normal)
      ASMCAP_EXCLUDES(mutex_);

  /// max(1, std::thread::hardware_concurrency()).
  static std::size_t hardware_workers();

 private:
  void worker_loop() ASMCAP_EXCLUDES(mutex_);
  /// Threadless pools: runs queued tasks until the queues are empty.
  void drain() ASMCAP_EXCLUDES(mutex_);
  std::function<void()> pop_task_locked() ASMCAP_REQUIRES(mutex_);

  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar cv_;
  /// The queues, one per TaskPriority, popped High-first.
  std::array<std::deque<std::function<void()>>, kTaskPriorityCount> tasks_
      ASMCAP_GUARDED_BY(mutex_);
  bool stop_ ASMCAP_GUARDED_BY(mutex_) = false;
  /// A threadless pool's queues are being run by some thread.
  bool draining_ ASMCAP_GUARDED_BY(mutex_) = false;
};

/// A lazily-created, session-owned ThreadPool handle: the pool is built at
/// the first get() and reused across calls (the ROADMAP pool-reuse item —
/// no per-batch pool churn). The pool only ever grows: a request for fewer
/// workers reuses the existing larger pool instead of tearing it down, so
/// mixed single/batch usage (workers=1 alternating with workers=8) churns
/// no threads. That is sound because every parallel map in this codebase
/// is worker-count invariant by construction. `workers == 0` means one
/// worker per hardware thread.
///
/// Pinning: growth REPLACES the pool, which would destroy it under any
/// still-running submitted task. Dispatchers with in-flight work
/// (SearchService tickets) therefore pin() the handle for their lifetime;
/// while pinned, get() clamps growth requests to the live pool instead of
/// replacing it (safe: worker-count invariance again). get() itself stays
/// control-plane (one thread at a time); pin()/unpin() may be called from
/// worker tasks.
class SessionPool {
 public:
  ThreadPool& get(std::size_t workers = 0) {
    if (workers == 0) workers = ThreadPool::hardware_workers();
    if (!pool_ || (pool_->workers() < workers &&
                   pins_.load(std::memory_order_acquire) == 0))
      pool_ = std::make_unique<ThreadPool>(workers);
    return *pool_;
  }

  void pin() { pins_.fetch_add(1, std::memory_order_acq_rel); }
  void unpin() { pins_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<std::size_t> pins_{0};
};

}  // namespace asmcap
