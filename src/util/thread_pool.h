#pragma once
// Small persistent worker pool for the batched execution engine. Two kinds
// of work share one set of threads:
//
//  * parallel_for — a dense index range; workers claim indices from a
//    shared atomic counter and all results are written by index, so the
//    output of a parallel map never depends on scheduling order or on how
//    many workers ran it. That property (plus per-index RNG forking at the
//    call sites) is what makes batched searches reproducible regardless of
//    thread count.
//  * submit — individual detached tasks drained from a FIFO queue. This is
//    the asynchronous substrate of the streaming SearchService: tasks may
//    submit further tasks (unlike parallel_for, which is not reentrant),
//    and completion is tracked by the caller through a TaskGroup.
//
// Ownership: a ThreadPool owns its threads; SessionPool (below) owns one
// lazily-built ThreadPool per session owner (accelerator, sharded router).
// Thread-safety: submit() may be called from any thread, including from
// inside a running task; parallel_for() must be called from exactly one
// thread at a time and is NOT reentrant (see its comment). TaskGroup is
// fully thread-safe. The lock protocol is statically checked: every
// queue and flag below is ASMCAP_GUARDED_BY the pool mutex (Clang
// -Werror=thread-safety; see util/thread_annotations.h).
//
// See docs/architecture.md for where the pool sits in the engine layering.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace asmcap {

/// Priority class of a detached submit() task. Workers always pop the
/// lowest-numbered non-empty queue, FIFO within a class: a High task
/// enqueued behind a thousand Low tasks runs as soon as any worker frees
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
  /// run both parallel_for indices and submitted tasks. `workers == 1`
  /// spawns no threads and runs everything inline on the caller;
  /// `workers == 0` uses hardware_workers().
  explicit ThreadPool(std::size_t workers = 0);
  /// Drains every queued submit() task, then joins the threads.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (the spawned threads, or 1 when inline).
  std::size_t workers() const {
    return threads_.empty() ? 1 : threads_.size();
  }

  /// Runs fn(i) for every i in [0, count), blocking until all complete.
  /// On a threaded pool the spawned threads run the indices while the
  /// caller waits (a single index runs inline on the caller). fn must be
  /// safe to call concurrently for distinct indices. The first exception
  /// thrown by any index is rethrown here (remaining indices may or may
  /// not run).
  ///
  /// NOT REENTRANT: the pool runs one parallel_for job at a time (a single
  /// shared job/generation slot), so fn must never call parallel_for on
  /// the same pool — a nested call would clobber the in-flight job and
  /// deadlock or miscount. (submit() from inside fn is fine.) Session
  /// owners (accelerator, sharded router, read mapper) therefore run
  /// their parallel phases strictly one after another.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      ASMCAP_EXCLUDES(mutex_);

  /// Enqueues one detached task. Tasks run FIFO within their priority
  /// class on the spawned threads, and a worker always prefers the
  /// highest class with queued work (High before Normal before Low); on a
  /// pool with no spawned threads (workers == 1) the task runs inline
  /// before submit() returns, via a trampoline so that task chains (tasks
  /// submitting tasks) use constant stack depth — inline execution is
  /// strict FIFO regardless of priority, which is irrelevant for ordering
  /// guarantees because every task completes before submit() returns.
  /// Tasks SHOULD NOT throw — there is no completion channel to carry an
  /// exception: on a threaded pool a throwing task terminates the
  /// process; on a threadless pool the exception propagates to the
  /// draining submit() caller (still-queued tasks run at the next
  /// submit). Callers such as SearchService catch inside the task and
  /// report at wait(). Callable from any thread, including from inside a
  /// running task.
  void submit(std::function<void()> task,
              TaskPriority priority = TaskPriority::Normal)
      ASMCAP_EXCLUDES(mutex_);

  /// max(1, std::thread::hardware_concurrency()).
  static std::size_t hardware_workers();

 private:
  struct Job {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    Mutex error_mutex;
    std::exception_ptr error ASMCAP_GUARDED_BY(error_mutex);
  };

  void worker_loop() ASMCAP_EXCLUDES(mutex_);
  void run_job(Job& job) ASMCAP_EXCLUDES(mutex_);
  bool any_task_locked() const ASMCAP_REQUIRES(mutex_);
  std::function<void()> pop_task_locked() ASMCAP_REQUIRES(mutex_);

  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;
  /// Current parallel_for job (the single shared slot).
  std::shared_ptr<Job> job_ ASMCAP_GUARDED_BY(mutex_);
  /// Bumped per job.
  std::uint64_t generation_ ASMCAP_GUARDED_BY(mutex_) = 0;
  /// submit queues, one per TaskPriority, popped High-first.
  std::array<std::deque<std::function<void()>>, kTaskPriorityCount> tasks_
      ASMCAP_GUARDED_BY(mutex_);
  bool stop_ ASMCAP_GUARDED_BY(mutex_) = false;
  // Inline-execution trampoline for threadless pools (any thread may
  // enqueue; whichever thread entered the drain loop executes).
  std::deque<std::function<void()>> inline_tasks_ ASMCAP_GUARDED_BY(mutex_);
  bool inline_running_ ASMCAP_GUARDED_BY(mutex_) = false;
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
