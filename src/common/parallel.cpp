#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/error.hpp"

namespace qtda {

namespace {
/// True while the thread runs pool work: a pool task, or a piece of a
/// section that its caller runs.  parallel_for{,_chunked} from a pool task
/// would block a worker on helpers that only other (possibly all-blocked)
/// workers can run, and from a caller-run piece it would compete with the
/// section's own helpers, so nested calls degrade to serial execution.
thread_local bool t_inside_pool_work = false;

/// Pieces a section offers per pool thread.  A thread that starts late
/// (slow to wake, or descheduled) delays the section by one piece, a
/// quarter of its even share, instead of by the whole share.
constexpr std::size_t kPiecesPerWorker = 4;

/// One parallel_for_chunked call: [begin, end) cut into equal pieces that
/// the caller and its helper tasks claim in order from an atomic counter.
/// The caller waits only until every piece has finished.  A helper that
/// wakes after the last piece was claimed returns without touching the
/// body, so the section is shared-owned: it outlives the caller's frame
/// for such helpers, while the body (the caller's) is only called for a
/// claimed piece, which the caller waits for.
class Section {
 public:
  using Body = std::function<void(std::size_t, std::size_t)>;

  Section(const Body& body, std::size_t begin, std::size_t end,
          std::size_t pieces)
      : body_(&body),
        begin_(begin),
        end_(end),
        span_((end - begin + pieces - 1) / pieces),
        pieces_((end - begin + span_ - 1) / span_) {}

  std::size_t pieces() const { return pieces_; }

  /// Claims and runs pieces until none is left.  A piece's exception is
  /// kept (the first one) and the remaining pieces still run.
  void run_pieces() {
    for (;;) {
      const std::size_t piece = next_.fetch_add(1, std::memory_order_relaxed);
      if (piece >= pieces_) return;
      const std::size_t lo = begin_ + piece * span_;
      const std::size_t hi = std::min(end_, lo + span_);
      std::exception_ptr error;
      try {
        (*body_)(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(mutex_);
      if (error != nullptr && first_error_ == nullptr) first_error_ = error;
      if (++done_ == pieces_) all_done_.notify_all();
    }
  }

  /// Blocks until every piece has finished, then rethrows the first
  /// exception a piece threw.
  void wait() {
    std::exception_ptr error;
    {
      MutexLock lock(mutex_);
      while (done_ != pieces_) all_done_.wait(mutex_);
      error = first_error_;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  const Body* body_;
  const std::size_t begin_;
  const std::size_t end_;
  const std::size_t span_;    ///< indices per piece (the last may be short)
  const std::size_t pieces_;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed piece
  Mutex mutex_;
  CondVar all_done_;
  std::size_t done_ QTDA_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ QTDA_GUARDED_BY(mutex_);
};

/// Marks the calling thread as running pool work for its lifetime.
class PoolWorkScope {
 public:
  PoolWorkScope() { t_inside_pool_work = true; }
  ~PoolWorkScope() { t_inside_pool_work = false; }
  PoolWorkScope(const PoolWorkScope&) = delete;
  PoolWorkScope& operator=(const PoolWorkScope&) = delete;
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
  t_inside_pool_work = true;
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
  return t_inside_pool_work ? 1 : ThreadPool::shared().size();
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_parallel_size) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t workers = pool.size();
  if (n < min_parallel_size || workers <= 1 || t_inside_pool_work) {
    body(begin, end);
    return;
  }
  const auto section = std::make_shared<Section>(
      body, begin, end, std::min(n, workers * kPiecesPerWorker));
  const std::size_t helpers = std::min(workers, section->pieces()) - 1;
  for (std::size_t h = 0; h < helpers; ++h)
    pool.submit([section] { section->run_pieces(); });
  {
    PoolWorkScope scope;
    section->run_pieces();
  }
  section->wait();
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
