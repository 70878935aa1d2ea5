#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
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
  if (workers == 1) return;  // threadless: submitters run the queues
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // A threadless pool may still hold tasks queued behind one that threw
  // out of an earlier drain: run them now, discarding exceptions (a
  // destructor is noexcept).
  for (bool done = false; !done;) {
    try {
      drain();
      done = true;
    } catch (...) {
    }
  }
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
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!(task = pop_task_locked()) && !stop_) cv_.wait(mutex_);
    }
    // Exit only once the queues are drained: shutdown completes every
    // submitted task (TaskGroup waiters never dangle).
    if (!task) return;
    task();
  }
}

void ThreadPool::drain() {
  {
    MutexLock lock(mutex_);
    if (draining_) return;  // the thread running the queues runs this too
    draining_ = true;
  }
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      task = pop_task_locked();
      if (!task) {
        draining_ = false;
        return;
      }
    }
    try {
      task();
    } catch (...) {
      MutexLock lock(mutex_);
      draining_ = false;
      throw;
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  Mutex error_mutex;
  std::exception_ptr error;  // written under error_mutex
  const auto claim_indices = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  // The spawned threads run every index; the caller only waits, so a
  // pool of N runs parallel_for and submitted tasks on the same N threads.
  TaskGroup group;
  const std::size_t tasks = std::min(count, threads_.size());
  group.start(tasks);
  for (std::size_t t = 0; t < tasks; ++t)
    submit(
        [&claim_indices, &group] {
          claim_indices();
          group.finish();
        },
        TaskPriority::High);
  group.wait();
  // Every task's write to `error` happens before its finish(), which
  // wait() has observed.
  if (error) std::rethrow_exception(error);
}

void ThreadPool::submit(std::function<void()> task, TaskPriority priority) {
  {
    MutexLock lock(mutex_);
    tasks_[static_cast<std::size_t>(priority)].push_back(std::move(task));
  }
  if (threads_.empty())
    drain();
  else
    cv_.notify_one();
}

}  // namespace asmcap
