#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "worker_gates.h"

namespace asmcap {
namespace {

TEST(ThreadPool, InlineWhenSingleWorker) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::vector<int> out(100, 0);
  pool.parallel_for(out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, AllIndicesRunExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::size_t> out(64, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i + 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}),
              64u * 65u / 2u);
  }
}

TEST(ThreadPool, EmptyAndSingleCounts) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, HardwareWorkersAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_workers(), 1u);
}

// --------------------------------------------- detached tasks + TaskGroup --

TEST(ThreadPool, SubmitRunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  TaskGroup group;
  std::vector<std::atomic<int>> hits(200);
  group.start(hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i)
    pool.submit([&, i] {
      ++hits[i];
      group.finish();
    });
  group.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(ThreadPool, SubmitRunsInlineOnThreadlessPool) {
  // workers == 1 spawns no threads: the task must complete before
  // submit() returns (deterministic synchronous degradation).
  ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, TaskChainsUseConstantStackOnThreadlessPool) {
  // Tasks submitting tasks (the service admission ladder) must trampoline,
  // not recurse: 100k chained tasks would overflow the stack otherwise.
  ThreadPool pool(1);
  TaskGroup group;
  std::size_t count = 0;
  std::function<void()> step = [&] {
    if (++count < 100000) {
      group.start(1);
      pool.submit(step);
    }
    group.finish();
  };
  group.start(1);
  pool.submit(step);
  group.wait();
  EXPECT_EQ(count, 100000u);
}

TEST(ThreadPool, TasksMaySubmitTasksAcrossThreads) {
  ThreadPool pool(3);
  TaskGroup group;
  std::atomic<int> total{0};
  group.start(8);
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      group.start(4);
      for (int j = 0; j < 4; ++j)
        pool.submit([&] {
          ++total;
          group.finish();
        });
      ++total;
      group.finish();
    });
  group.wait();
  EXPECT_EQ(total.load(), 8 * 5);
}

TEST(ThreadPool, SubmitInterleavesWithParallelFor) {
  ThreadPool pool(4);
  TaskGroup group;
  std::atomic<int> async_done{0};
  group.start(16);
  for (int i = 0; i < 16; ++i)
    pool.submit([&] {
      ++async_done;
      group.finish();
    });
  std::vector<std::size_t> out(64, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i + 1; });
  group.wait();
  EXPECT_EQ(async_done.load(), 16);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}),
            64u * 65u / 2u);
}

TEST(ThreadPool, InlineTrampolineSurvivesThrowingTask) {
  // On a threadless pool a throwing task propagates out of the draining
  // submit(), and the pool must stay usable (the drain flag resets).
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit([] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, DestructorDrainsAbandonedInlineTasks) {
  // A task queued behind a thrower is abandoned by the trampoline but
  // must still run by destruction time (the drain contract).
  bool ran = false;
  {
    ThreadPool pool(1);
    try {
      pool.submit([&] {
        pool.submit([&] { ran = true; });
        throw std::runtime_error("boom");
      });
    } catch (const std::runtime_error&) {
    }
    EXPECT_FALSE(ran);
  }
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.submit([&] { ++ran; });
    // No wait: the destructor must finish every queued task before join.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, HighPriorityTasksOvertakeQueuedLowerClasses) {
  // Gate both workers of a pool of 2, enqueue Low, Normal, and High work
  // interleaved, then release one worker: it drains the queue alone, so
  // the observed execution order IS the pop order. Every High task must
  // run before every Normal, every Normal before every Low, and order
  // within a class must stay FIFO.
  ThreadPool pool(2);
  TaskGroup group;
  std::mutex mutex;
  std::vector<int> order;
  {
    WorkerGates gates(pool);
    const auto enqueue = [&](int tag, TaskPriority priority) {
      group.start();
      pool.submit(
          [&, tag] {
            {
              std::lock_guard<std::mutex> lock(mutex);
              order.push_back(tag);
            }
            group.finish();
          },
          priority);
    };
    for (int i = 0; i < 4; ++i) {
      enqueue(300 + i, TaskPriority::Low);
      enqueue(200 + i, TaskPriority::Normal);
      enqueue(100 + i, TaskPriority::High);
    }
    gates.release_one();
    group.wait();
  }
  const std::vector<int> expected = {100, 101, 102, 103, 200, 201,
                                     202, 203, 300, 301, 302, 303};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PoolOfNRunsNSubmittedTasksAtOnce) {
  // A pool of N is N executors for submitted (service) tasks too: N tasks
  // that each wait until all N are running finish only when N threads run
  // them at once. With fewer threads each would give up after the
  // timeout, and the peak would fall short.
  for (const std::size_t n : {2, 3, 4}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.workers(), n);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t running = 0;
    std::size_t peak = 0;
    TaskGroup group;
    group.start(n);
    for (std::size_t i = 0; i < n; ++i)
      pool.submit([&] {
        {
          std::unique_lock<std::mutex> lock(mutex);
          peak = std::max(peak, ++running);
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return peak == n; });
          --running;
        }
        group.finish();
      });
    group.wait();
    EXPECT_EQ(peak, n);
  }
}

TEST(ThreadPool, ThreadlessPoolIgnoresPriorityAndStaysFifo) {
  // Inline execution completes each task before submit() returns, so
  // priority cannot reorder anything: submission order is the order.
  ThreadPool pool(1);
  std::vector<int> order;
  pool.submit([&] { order.push_back(1); }, TaskPriority::Low);
  pool.submit([&] { order.push_back(2); }, TaskPriority::High);
  pool.submit([&] { order.push_back(3); }, TaskPriority::Normal);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TaskGroup, ReusableAfterDraining) {
  TaskGroup group;
  group.wait();  // empty group: returns immediately
  for (int round = 0; round < 3; ++round) {
    group.start(2);
    EXPECT_EQ(group.pending(), 2u);
    group.finish();
    group.finish();
    group.wait();
    EXPECT_EQ(group.pending(), 0u);
  }
}

}  // namespace
}  // namespace asmcap
