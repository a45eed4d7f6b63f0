// Tests for common/parallel.hpp.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace qtda {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](std::size_t i) { ++visits[i]; },
               /*min_parallel_size=*/1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  std::vector<int> order;
  parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               /*min_parallel_size=*/1024);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // serial fallback preserves order
}

TEST(ParallelForChunked, CoversRangeWithoutOverlap) {
  const std::size_t n = 12345;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++visits[i];
      },
      1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          0, 100000,
          [](std::size_t i) {
            if (i == 54321) throw Error("boom");
          },
          1),
      Error);
}

TEST(ParallelReduceOrdered, MatchesSerialAndIsReproducible) {
  const std::size_t n = 50000;
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial += static_cast<double>(i) * 0.5;
  double first = 0.0, second = 0.0;
  const auto body = [](std::size_t i, double& acc) {
    acc += static_cast<double>(i) * 0.5;
  };
  const auto merge = [](double& total, double part) { total += part; };
  parallel_reduce_ordered(0, n, first, 0.0, body, merge, 1);
  parallel_reduce_ordered(0, n, second, 0.0, body, merge, 1);
  EXPECT_DOUBLE_EQ(first, second);  // fixed split + ordered merge
  EXPECT_NEAR(first, serial, 1e-6 * serial);
}

TEST(AvailableWorkers, PoolSizeOnTheCallerOneInsideAPoolTask) {
  EXPECT_EQ(available_workers(), ThreadPool::shared().size());
  std::atomic<std::size_t> inside{0};
  ThreadPool::shared().submit([&] { inside = available_workers(); });
  ThreadPool::shared().wait_idle();
  EXPECT_EQ(inside.load(), 1u);
}

/// Occupies every worker of the shared pool with a task that blocks until
/// release(), so a section's helpers queue behind them and only its caller
/// can run pieces.  The destructor releases and drains the pool.
class HeldPool {
 public:
  HeldPool() : size_(ThreadPool::shared().size()) {
    for (std::size_t w = 0; w < size_; ++w)
      ThreadPool::shared().submit([this] { hold(); });
    MutexLock lock(mutex_);
    while (held_ != size_) cv_.wait(mutex_);
  }
  ~HeldPool() {
    release();
    ThreadPool::shared().wait_idle();
  }
  HeldPool(const HeldPool&) = delete;
  HeldPool& operator=(const HeldPool&) = delete;

  void release() {
    MutexLock lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  void hold() {
    MutexLock lock(mutex_);
    ++held_;
    cv_.notify_all();
    while (!released_) cv_.wait(mutex_);
  }

  const std::size_t size_;
  Mutex mutex_;
  CondVar cv_;
  std::size_t held_ QTDA_GUARDED_BY(mutex_) = 0;
  bool released_ QTDA_GUARDED_BY(mutex_) = false;
};

/// Runs \p fn on a thread outside the pool and reports whether it finished
/// within a generous bound (a section that waits for its queued helpers
/// never does while the pool is held).
template <typename Fn>
bool finishes_while_held(HeldPool& held, Fn fn) {
  std::future<void> done = std::async(std::launch::async, fn);
  const bool finished =
      done.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  held.release();
  done.get();
  return finished;
}

TEST(ParallelForChunked, CallerFinishesWhileEveryWorkerIsBlocked) {
  HeldPool held;
  const std::size_t n = 1000;
  std::vector<int> visits(n, 0);
  std::thread::id caller;
  std::vector<std::thread::id> runners;
  EXPECT_TRUE(finishes_while_held(held, [&] {
    caller = std::this_thread::get_id();
    parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          runners.push_back(std::this_thread::get_id());
          for (std::size_t i = lo; i < hi; ++i) ++visits[i];
        },
        1);
  }));
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i], 1) << i;
  for (const std::thread::id& id : runners) EXPECT_EQ(id, caller);
}

TEST(ParallelForChunked, CallerPieceSeesOneWorkerAndRunsNestedCallsSerially) {
  HeldPool held;
  std::vector<std::size_t> workers_seen;
  std::vector<std::size_t> nested_calls;
  EXPECT_TRUE(finishes_while_held(held, [&] {
    parallel_for_chunked(
        0, 64,
        [&](std::size_t, std::size_t) {
          workers_seen.push_back(available_workers());
          std::size_t calls = 0;
          parallel_for_chunked(
              0, 4096,
              [&](std::size_t lo, std::size_t hi) {
                ++calls;
                EXPECT_EQ(lo, 0u);
                EXPECT_EQ(hi, 4096u);
              },
              1);
          nested_calls.push_back(calls);
        },
        1);
  }));
  ASSERT_FALSE(workers_seen.empty());
  for (std::size_t w : workers_seen) EXPECT_EQ(w, 1u);
  for (std::size_t c : nested_calls) EXPECT_EQ(c, 1u);
  // Outside the section the caller sees the whole pool again.
  EXPECT_EQ(available_workers(), ThreadPool::shared().size());
}

TEST(ParallelForChunked, CallerPieceExceptionPropagatesAfterEveryPiece) {
  if (ThreadPool::shared().size() < 2) GTEST_SKIP() << "needs pool helpers";
  const std::size_t n = 64;
  const std::thread::id caller = std::this_thread::get_id();
  Mutex mutex;
  CondVar caller_started;
  bool started = false;
  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> thrown_size{0};
  // Helper pieces wait for the caller's first piece, so at most one piece
  // per helper is claimed before the caller claims one: the caller always
  // runs a piece, and it throws.
  const auto body = [&](std::size_t lo, std::size_t hi) {
    if (std::this_thread::get_id() == caller && thrown_size == 0) {
      {
        MutexLock lock(mutex);
        started = true;
        caller_started.notify_all();
      }
      thrown_size = hi - lo;
      throw Error("caller piece");
    }
    {
      MutexLock lock(mutex);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!started && std::chrono::steady_clock::now() < deadline)
        caller_started.wait_for(mutex, std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    finished += hi - lo;
  };
  EXPECT_THROW(parallel_for_chunked(0, n, body, 1), Error);
  EXPECT_GT(thrown_size.load(), 0u);
  EXPECT_EQ(finished.load() + thrown_size.load(), n);

  // The pool stays usable.
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](std::size_t i) { ++visits[i]; }, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  ThreadPool::shared().wait_idle();
}

TEST(HardwareConcurrency, AtLeastOne) {
  EXPECT_GE(hardware_concurrency(), 1u);
}

}  // namespace
}  // namespace qtda
