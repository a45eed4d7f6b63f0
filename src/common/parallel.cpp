#include "common/parallel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qtda {

namespace {
/// True on threads owned by a ThreadPool.  parallel_for{,_chunked} from
/// inside a pool task would block a worker waiting on sub-tasks that only
/// other (possibly all-blocked) workers can run — a deadlock.  Nested calls
/// therefore degrade to serial execution.
thread_local bool t_inside_pool_worker = false;

/// Stack-allocated completion latch shared between a barrier caller and its
/// submitted tasks.  One mutex guards both the counter and the first error:
/// every task takes it exactly once on exit, and folding the error under the
/// same lock removes a second mutex without adding contention.
struct CompletionBarrier {
  Mutex mutex;
  CondVar done_cv;
  std::size_t done QTDA_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error QTDA_GUARDED_BY(mutex);
};
}  // namespace

std::size_t hardware_concurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  QTDA_REQUIRE(num_threads > 0, "ThreadPool needs at least one thread");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    QTDA_REQUIRE(!shutting_down_, "submit() on a shutting-down pool");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.wait(mutex_);
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && tasks_.empty()) task_available_.wait(mutex_);
      if (tasks_.empty()) return;  // shutting down and fully drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked
  return *pool;
}

std::size_t available_workers() {
  return t_inside_pool_worker ? 1 : ThreadPool::shared().size();
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_parallel_size) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t workers = pool.size();
  if (n < min_parallel_size || workers <= 1 || t_inside_pool_worker) {
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(workers, n);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const std::size_t launched = (n + chunk - 1) / chunk;
  // The completion counter must be incremented under barrier.mutex: the
  // caller may only observe done == launched via the same lock the last
  // worker holds while notifying, otherwise it could return and destroy the
  // barrier stack local while that worker still touches it.
  CompletionBarrier barrier;
  for (std::size_t c = 0; c < launched; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    pool.submit([&, lo, hi] {
      std::exception_ptr error;
      try {
        body(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(barrier.mutex);
      if (error != nullptr && barrier.first_error == nullptr)
        barrier.first_error = error;
      if (++barrier.done == launched) barrier.done_cv.notify_all();
    });
  }
  std::exception_ptr first_error;
  {
    MutexLock lock(barrier.mutex);
    while (barrier.done != launched) barrier.done_cv.wait(barrier.mutex);
    first_error = barrier.first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_parallel_size) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      min_parallel_size);
}

}  // namespace qtda
