/// \file telemetry.hpp
/// \brief Process-wide telemetry: counters, gauges, latency histograms, and
/// RAII trace spans.
///
/// Design constraints, in order:
///
///  1. **Zero-cost when disabled.**  Every instrumented site checks one
///     relaxed atomic (`telemetry::enabled()`) and does nothing else.  The
///     default is disabled, so the golden bit-identity fingerprints and the
///     micro-bench baselines see the pre-telemetry code paths unchanged —
///     instrumentation never touches arithmetic, only wraps it in timing.
///  2. **No allocation on hot paths.**  Registry entries are created once
///     (the QTDA_SPAN / QTDA_COUNTER_ADD macros cache a `static` reference)
///     and never destroyed, so a cached reference stays valid for the
///     process lifetime.  Counter increments are sharded relaxed atomics;
///     histogram records are one atomic add into a fixed bucket array.
///  3. **Deterministic aggregation.**  Histograms use a fixed log-bucket
///     layout (8 sub-buckets per power of two, values < 8 exact), so
///     merging two snapshots is plain per-bucket count addition and the
///     same samples always land in the same buckets on every host.
///
/// One registry: Registry::snapshot() copies every metric into a
/// MetricsReport, the one type every reader renders — `--stats` reports
/// (render_text) and the serving layer's `stats` and `metrics` verbs, which
/// add the artifact caches to it (serve/metrics.hpp).  A BettiServer
/// enables collection on start() and counts its own events here too, so a
/// served process has no second set of counters.
///
/// Tracing: when a trace is active (QTDA_TRACE=out.json or start_trace()),
/// each span additionally appends one event to a thread-local buffer with
/// its nesting depth; stop_trace() collects every thread's events and
/// chrome_trace_json() renders them as Chrome-trace "X" (complete) events —
/// load the file in any about://tracing-compatible viewer.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace qtda {
namespace telemetry {

namespace detail {
/// -1 = not yet initialized from the environment, 0 = off, 1 = on.
extern std::atomic<int> g_enabled_state;
/// Slow path: parses QTDA_TELEMETRY / QTDA_TRACE (fail-fast on bad values)
/// and stores the result.  Called at most a handful of times.
bool enabled_slow();
/// Monotonic nanoseconds since process start (small, positive values keep
/// the Chrome-trace timestamps readable).
std::uint64_t now_ns();
}  // namespace detail

/// True when telemetry is collecting.  One relaxed load on the fast path;
/// first call lazily initializes from QTDA_TELEMETRY / QTDA_TRACE so any
/// binary — benches included — honors the env without code changes.
inline bool enabled() {
  const int state = detail::g_enabled_state.load(std::memory_order_relaxed);
  if (state >= 0) return state > 0;
  return detail::enabled_slow();
}

/// Programmatic override (the daemon and --stats drivers enable; tests
/// flip both ways).  Wins over the environment.
void set_enabled(bool on);

/// Monotonically increasing event count.  Increments land in one of a few
/// cache-line-sized slots chosen by thread, so concurrent hammering does
/// not bounce a single line; value() sums the slots.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) {
    slots_[slot_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_)
      total += slot.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr std::size_t kSlots = 8;
  static std::size_t slot_index();
  std::array<Slot, kSlots> slots_;
};

/// A signed level (queue depth, bytes held, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A deterministic snapshot of one histogram: total count, total sum, and
/// the non-empty (bucket index, count) pairs in ascending index order.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;

  /// Adds another snapshot bucket-for-bucket (the fixed layout makes this
  /// exact: merged quantiles equal quantiles of the concatenated samples
  /// up to bucket resolution).
  void merge(const HistogramSnapshot& other);

  /// Approximate q-quantile (q in [0, 1]) by linear interpolation inside
  /// the covering bucket.  Returns 0 for an empty snapshot.
  double quantile(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Log-bucketed histogram of non-negative integer samples (latencies in
/// nanoseconds, batch sizes, ...).  Fixed layout: values below 8 get exact
/// unit buckets; above, each power-of-two octave splits into 8 sub-buckets
/// (≤12.5% relative width).  Recording is lock-free and allocation-free.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr std::size_t kNumBuckets = (64 - kSubBits + 1)
                                             << kSubBits;  // 496

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Maps a sample to its bucket.  Pure function of the value — the
  /// deterministic-merge contract.
  static std::size_t bucket_index(std::uint64_t value);
  /// Largest value landing in \p index (inclusive).
  static std::uint64_t bucket_upper_bound(std::size_t index);
  /// Smallest value landing in \p index.
  static std::uint64_t bucket_lower_bound(std::size_t index);

  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Everything the registry holds, copied out by name.  Maps keep rendering
/// and comparison deterministic; the serving layer adds its cache levels to
/// the same report (serve/metrics.hpp), so every surface reads one type.
struct MetricsReport {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// The process-wide name → metric table.  Lookups take a mutex; entries are
/// never destroyed, so references returned here stay valid forever — cache
/// them in a `static` at the call site (the macros below do).
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every metric.
  MetricsReport snapshot() const;

  /// Zeroes every value (registrations survive).  For tests and drivers
  /// wanting a per-run snapshot; not atomic across metrics.
  void reset_values();

 private:
  struct Impl;
  Impl& impl() const;
};

/// The single process-wide registry.
Registry& registry();

/// One collected trace event (a completed span).
struct TraceEvent {
  const char* name;          ///< span name (string literal at the site)
  std::uint64_t start_ns;    ///< from the process-start monotonic origin
  std::uint64_t duration_ns;
  std::uint32_t thread;      ///< small dense per-thread id
  std::uint32_t depth;       ///< nesting depth on that thread at entry
};

/// Starts collecting span events (idempotent).  Spans only record events
/// while both enabled() and trace_active() hold.
void start_trace();
bool trace_active();
/// Stops collection and returns every event recorded since start_trace(),
/// sorted by (thread, start).  Call after the traced work has quiesced.
std::vector<TraceEvent> stop_trace();

/// Renders events as Chrome-trace JSON ({"traceEvents": [...]}).
std::string chrome_trace_json(const std::vector<TraceEvent>& events);
/// stop_trace() + render + write to \p path.  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

namespace detail {
struct ThreadTrace {
  /// Guards events only: the owning thread appends (span end) while
  /// stop_trace() drains every registered trace from whichever thread asks.
  /// Uncontended in steady state — stop_trace is a once-per-trace-session
  /// operation — so span end pays one uncontended lock while tracing.
  Mutex mutex;
  std::vector<TraceEvent> events QTDA_GUARDED_BY(mutex);
  std::uint32_t depth = 0;  ///< owning thread only; never read across threads
  std::uint32_t id = 0;     ///< written once at registration by the owner
};
ThreadTrace& thread_trace();
}  // namespace detail

/// RAII span: on destruction records its duration (ns) into the bound
/// histogram and, when a trace is active, appends one TraceEvent carrying
/// the nesting depth.  Constructing with telemetry disabled is one relaxed
/// load and nothing else.
class Span {
 public:
  Span(Histogram& histogram, const char* name)
      : histogram_(&histogram), name_(name) {
    if (!enabled()) return;
    active_ = true;
    start_ = detail::now_ns();
    if (trace_active()) {
      tracing_ = true;
      depth_ = detail::thread_trace().depth++;
    }
  }
  ~Span() {
    if (!active_) return;
    const std::uint64_t duration = detail::now_ns() - start_;
    histogram_->record(duration);
    if (tracing_) {
      detail::ThreadTrace& trace = detail::thread_trace();
      --trace.depth;
      MutexLock lock(trace.mutex);
      trace.events.push_back({name_, start_, duration, trace.id, depth_});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Histogram* histogram_;
  const char* name_;
  std::uint64_t start_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
  bool tracing_ = false;
};

/// Plain-text rendering of a report for --stats style reports.
std::string render_text(const MetricsReport& report);

}  // namespace telemetry
}  // namespace qtda

#define QTDA_TELEMETRY_CONCAT2(a, b) a##b
#define QTDA_TELEMETRY_CONCAT(a, b) QTDA_TELEMETRY_CONCAT2(a, b)

/// Times the enclosing scope into the histogram `span.<name>` and, when a
/// trace is active, records a nested trace event.  \p name must be a string
/// literal.  The histogram reference is resolved once per site.
#define QTDA_SPAN(name)                                                     \
  static ::qtda::telemetry::Histogram& QTDA_TELEMETRY_CONCAT(               \
      qtda_span_histogram_, __LINE__) =                                     \
      ::qtda::telemetry::registry().histogram(std::string("span.") + name); \
  ::qtda::telemetry::Span QTDA_TELEMETRY_CONCAT(qtda_span_, __LINE__)(      \
      QTDA_TELEMETRY_CONCAT(qtda_span_histogram_, __LINE__), name)

/// Adds \p delta to the counter \p name when telemetry is enabled.  \p name
/// must be a compile-time-constant expression (resolved once per site).
#define QTDA_COUNTER_ADD(name, delta)                                 \
  do {                                                                \
    if (::qtda::telemetry::enabled()) {                               \
      static ::qtda::telemetry::Counter& qtda_counter_site_ =         \
          ::qtda::telemetry::registry().counter(name);                \
      qtda_counter_site_.add(delta);                                  \
    }                                                                 \
  } while (false)
