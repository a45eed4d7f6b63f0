/// \file parallel.hpp
/// \brief Shared-memory parallel primitives used by the hot kernels.
///
/// A cached thread pool with a blocking parallel_for and an ordered
/// reduction.  A parallel_for is one section: its range is cut into a few
/// equal pieces per pool thread, and the caller and up to size() − 1 helper
/// tasks claim them in order, so the caller works instead of waiting and a
/// helper that starts late costs one piece.  What runs on it: the dense
/// engine's marginal and norm reductions above 2^17 amplitudes, the
/// Chebyshev oracle's blocks of up to eight right-hand sides and, for a
/// single right-hand side, its CSR passes split by rows from 2^16 stored
/// nonzeros, and task-level sweeps (e.g. the random complexes of the
/// Fig. 3 sweep).
/// The dense engine's gate kernels are serial.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace qtda {

/// Number of hardware threads, with a safe floor of 1.
std::size_t hardware_concurrency();

/// A fixed-size pool of worker threads executing submitted closures.
/// Workers are joined on destruction (RAII; no detached threads).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Submits a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void wait_idle();

  /// Process-wide shared pool (lazily constructed, never torn down before
  /// main exits).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ QTDA_GUARDED_BY(mutex_);
  std::size_t in_flight_ QTDA_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ QTDA_GUARDED_BY(mutex_) = false;
};

/// Threads a parallel_for{,_chunked} issued from the calling thread spreads
/// over: the shared pool's size (the caller and size() − 1 helpers), or 1
/// inside a pool task or a piece the caller runs, where nested calls run
/// serially.
std::size_t available_workers();

/// Runs body(i) for i in [begin, end) across the shared pool, blocking until
/// completion.  The range is cut into contiguous pieces, four per pool
/// thread (fewer when the range is shorter), which the calling thread and
/// up to size() − 1 pool workers claim in order; the call returns once
/// every claimed piece has finished, without waiting for a worker that
/// wakes after the last one.  Runs serially when the range is small or the
/// pool has one thread.  Safe to call from inside a pool task or a piece:
/// nested invocations run serially instead of deadlocking the pool.  An
/// exception from a piece is rethrown after every piece has finished.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_parallel_size = 1024);

/// Chunked variant: body(piece_begin, piece_end) per piece.  Lower
/// per-element overhead for tight loops.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_parallel_size = 1024);

/// Deterministic parallel reduction into \p result: [begin, end) is split
/// into a fixed number of contiguous chunks (at most the pool size),
/// `body(i, partial)` accumulates each chunk into its own partial
/// (initialized to \p identity), and the partials are merged into \p result
/// with `merge(result, partial)` in chunk order.  Because both the split
/// and the merge order are fixed functions of the pool size, the result is
/// reproducible run-to-run on a given machine — the property the sampling
/// cumulative sums need.
template <typename Partial, typename Body, typename Merge>
void parallel_reduce_ordered(std::size_t begin, std::size_t end,
                             Partial& result, const Partial& identity,
                             Body&& body, Merge&& merge,
                             std::size_t min_parallel_size = 1024) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks =
      n < min_parallel_size ? 1 : std::min(ThreadPool::shared().size(), n);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i, result);
    return;
  }
  const std::size_t span = (n + chunks - 1) / chunks;
  std::vector<Partial> partials(chunks, identity);
  parallel_for(
      0, chunks,
      [&](std::size_t c) {
        const std::size_t lo = begin + c * span;
        const std::size_t hi = std::min(end, lo + span);
        for (std::size_t i = lo; i < hi; ++i) body(i, partials[c]);
      },
      /*min_parallel_size=*/1);
  for (const Partial& partial : partials) merge(result, partial);
}

}  // namespace qtda
