#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace asmcap {

// ------------------------------------------------------------ TaskGroup --

void TaskGroup::start(std::size_t n) {
  MutexLock lock(mutex_);
  pending_ += n;
}

void TaskGroup::finish(std::size_t n) {
  MutexLock lock(mutex_);
  pending_ -= n;
  if (pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait() {
  MutexLock lock(mutex_);
  while (pending_ != 0) cv_.wait(mutex_);
}

std::size_t TaskGroup::pending() const {
  MutexLock lock(mutex_);
  return pending_;
}

// ----------------------------------------------------------- ThreadPool --

std::size_t ThreadPool::hardware_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = hardware_workers();
  if (workers == 1) return;  // threadless: everything runs inline
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // A threadless pool may hold inline tasks abandoned when an earlier
  // task threw out of the trampoline: fulfil the drain contract here
  // (exceptions are discarded — destructors are noexcept).
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      if (inline_tasks_.empty()) break;
      task = std::move(inline_tasks_.front());
      inline_tasks_.pop_front();
    }
    try {
      task();
    } catch (...) {
    }
  }
}

void ThreadPool::run_job(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    try {
      job.fn(i);
    } catch (...) {
      MutexLock lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

bool ThreadPool::any_task_locked() const {
  for (const auto& queue : tasks_)
    if (!queue.empty()) return true;
  return false;
}

std::function<void()> ThreadPool::pop_task_locked() {
  // Strict priority order: the first non-empty queue wins, FIFO within
  // it. Starvation of the lower classes is the caller's problem to solve
  // — the service tier's fair-share admission only ever has a bounded
  // number of tasks enqueued per ticket, so Low work always surfaces.
  for (auto& queue : tasks_)
    if (!queue.empty()) {
      std::function<void()> task = std::move(queue.front());
      queue.pop_front();
      return task;
    }
  return {};
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!(stop_ || any_task_locked() || generation_ != seen))
        start_cv_.wait(mutex_);
      if (generation_ != seen) {
        // A parallel_for job outranks the detached queue: the caller is
        // blocked on it and its index count is finite, so joining it
        // first bounds that caller's wait even while a streaming ticket
        // keeps the queue full (the queue resumes right after).
        seen = generation_;
        job = job_;
      } else if (any_task_locked()) {
        task = pop_task_locked();
      } else if (stop_) {
        // Exit only once the queue is drained: shutdown completes every
        // submitted task (TaskGroup waiters never dangle).
        return;
      }
    }
    if (task)
      task();
    else if (job)
      run_job(*job);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->count = count;
  job->remaining.store(count, std::memory_order_relaxed);
  {
    MutexLock lock(mutex_);
    job_ = job;
    ++generation_;
  }
  // The spawned threads run every index; the caller only waits, so a
  // pool of N runs parallel_for and submitted tasks on the same N threads.
  start_cv_.notify_all();
  {
    MutexLock lock(mutex_);
    while (job->remaining.load(std::memory_order_acquire) != 0)
      done_cv_.wait(mutex_);
    job_.reset();
  }
  // Read the error slot under its own lock: the analysis (rightly)
  // refuses the old bare read — it was only safe through the acq_rel
  // ordering on `remaining`, an argument no local reader can check.
  std::exception_ptr error;
  {
    MutexLock lock(job->error_mutex);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::submit(std::function<void()> task, TaskPriority priority) {
  if (!threads_.empty()) {
    {
      MutexLock lock(mutex_);
      tasks_[static_cast<std::size_t>(priority)].push_back(std::move(task));
    }
    start_cv_.notify_one();
    return;
  }
  // Threadless pool: run inline, through a trampoline so chains of tasks
  // submitting tasks (the service admission ladder) never recurse — the
  // draining submit() executes the whole chain iteratively. The queue is
  // guarded by mutex_ (submit stays callable from any thread; a
  // concurrent caller enqueues and returns, the drainer executes), and
  // tasks run unlocked. If a task throws, the drain flag is restored and
  // the exception propagates to the draining caller; tasks still queued
  // run at the next submit().
  {
    MutexLock lock(mutex_);
    inline_tasks_.push_back(std::move(task));
    if (inline_running_) return;
    inline_running_ = true;
  }
  for (;;) {
    std::function<void()> next;
    {
      MutexLock lock(mutex_);
      if (inline_tasks_.empty()) {
        inline_running_ = false;
        return;
      }
      next = std::move(inline_tasks_.front());
      inline_tasks_.pop_front();
    }
    try {
      next();
    } catch (...) {
      MutexLock lock(mutex_);
      inline_running_ = false;
      throw;
    }
  }
}

}  // namespace asmcap
