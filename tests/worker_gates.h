#pragma once
// Test helper: holds every thread of a threaded ThreadPool in a blocking
// task, so that tests can queue work and decide when (and on how many
// threads) it may start. Tests only; a pool of 1 runs tasks inline and
// cannot be gated.
//
// Thread-safety: release_one() and the destructor may race with the gate
// tasks; all shared state is guarded by one mutex.

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "util/thread_pool.h"

namespace asmcap {

/// The constructor returns once each of the pool's threads runs its gate,
/// so tasks submitted afterwards stay queued; release_one() lets one
/// thread go, and the destructor releases the rest and waits for them.
class WorkerGates {
 public:
  explicit WorkerGates(ThreadPool& pool) : count_(pool.workers()) {
    for (std::size_t i = 0; i < count_; ++i)
      pool.submit([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        ++running_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return permits_ > 0; });
        --permits_;
        ++done_;
        cv_.notify_all();
      });
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return running_ == count_; });
  }
  WorkerGates(const WorkerGates&) = delete;
  WorkerGates& operator=(const WorkerGates&) = delete;
  ~WorkerGates() {
    std::unique_lock<std::mutex> lock(mutex_);
    permits_ = count_ - done_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return done_ == count_; });
  }

  void release_one() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++permits_;
    }
    cv_.notify_all();
  }

 private:
  const std::size_t count_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t running_ = 0;
  std::size_t permits_ = 0;
  std::size_t done_ = 0;
};

}  // namespace asmcap
