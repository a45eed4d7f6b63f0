#include "common/telemetry.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace qtda {
namespace telemetry {

namespace detail {

std::atomic<int> g_enabled_state{-1};

namespace {

Mutex g_init_mutex;
/// Set once by env init, read by the atexit hook.
std::string g_trace_path QTDA_GUARDED_BY(g_init_mutex);

Mutex g_trace_registry_mutex;
std::vector<std::shared_ptr<ThreadTrace>> g_thread_traces
    QTDA_GUARDED_BY(g_trace_registry_mutex);
std::atomic<std::uint32_t> g_next_thread_id{0};
std::atomic<bool> g_trace_active{false};

void write_trace_at_exit() {
  std::string path;
  {
    MutexLock lock(g_init_mutex);
    path = g_trace_path;
  }
  if (!path.empty()) write_chrome_trace(path);
}

}  // namespace

std::uint64_t now_ns() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

bool enabled_slow() {
  MutexLock lock(g_init_mutex);
  const int state = g_enabled_state.load(std::memory_order_relaxed);
  if (state >= 0) return state > 0;  // raced with another initializer
  int value = 0;
  if (const char* env = std::getenv("QTDA_TELEMETRY")) {
    const std::string text(env);
    QTDA_REQUIRE(text == "0" || text == "1",
                 "QTDA_TELEMETRY must be 0 or 1, got \"" << text << '"');
    value = text == "1" ? 1 : 0;
  }
  if (const char* trace = std::getenv("QTDA_TRACE")) {
    if (*trace != '\0') {
      value = 1;  // a requested trace implies telemetry
      g_trace_path = trace;
      start_trace();
      std::atexit(write_trace_at_exit);
    }
  }
  g_enabled_state.store(value, std::memory_order_relaxed);
  return value > 0;
}

ThreadTrace& thread_trace() {
  thread_local std::shared_ptr<ThreadTrace> trace = [] {
    auto owned = std::make_shared<ThreadTrace>();
    MutexLock lock(g_trace_registry_mutex);
    owned->id = g_next_thread_id.fetch_add(1);
    g_thread_traces.push_back(owned);
    return owned;
  }();
  return *trace;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t Counter::slot_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1);
  return slot % kSlots;
}

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value < (std::uint64_t{1} << kSubBits)) {
    return static_cast<std::size_t>(value);
  }
  // Position of the most significant bit: the octave.  The kSubBits bits
  // just below it pick the sub-bucket.
  unsigned msb = 63;
  while ((value >> msb) == 0) --msb;
  const unsigned octave = msb - kSubBits + 1;
  const std::size_t sub = static_cast<std::size_t>(
      (value >> (msb - kSubBits)) & ((std::uint64_t{1} << kSubBits) - 1));
  return (static_cast<std::size_t>(octave) << kSubBits) | sub;
}

std::uint64_t Histogram::bucket_lower_bound(std::size_t index) {
  const std::size_t octave = index >> kSubBits;
  const std::uint64_t sub = index & ((std::size_t{1} << kSubBits) - 1);
  if (octave == 0) return sub;
  return ((std::uint64_t{1} << kSubBits) | sub) << (octave - 1);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) {
  const std::size_t octave = index >> kSubBits;
  const std::uint64_t sub = index & ((std::size_t{1} << kSubBits) - 1);
  if (octave == 0) return sub;
  // Next sub-bucket's lower bound minus one; the top bucket saturates.
  return ((((std::uint64_t{1} << kSubBits) | sub) + 1) << (octave - 1)) - 1;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t count = buckets_[i].load(std::memory_order_relaxed);
    if (count == 0) continue;
    out.count += count;
    out.buckets.emplace_back(i, count);
  }
  return out;
}

void Histogram::reset() {
  sum_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  std::vector<std::pair<std::size_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (const auto& [index, bucket_count] : buckets) {
    const std::uint64_t next = cumulative + bucket_count;
    if (static_cast<double>(next) >= target) {
      const double lo =
          static_cast<double>(Histogram::bucket_lower_bound(index));
      const double hi =
          static_cast<double>(Histogram::bucket_upper_bound(index));
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(bucket_count);
      return lo + (hi - lo) * std::min(std::max(within, 0.0), 1.0);
    }
    cumulative = next;
  }
  return static_cast<double>(
      Histogram::bucket_upper_bound(buckets.back().first));
}

struct Registry::Impl {
  mutable Mutex mutex;
  // Entries are heap-allocated and never freed: the macros cache references
  // for the process lifetime, and metrics must survive static destruction
  // order (the atexit trace writer may still run spans).  The mutex guards
  // the maps; the pointed-to metrics are internally synchronized atomics.
  std::map<std::string, Counter*> counters QTDA_GUARDED_BY(mutex);
  std::map<std::string, Gauge*> gauges QTDA_GUARDED_BY(mutex);
  std::map<std::string, Histogram*> histograms QTDA_GUARDED_BY(mutex);
};

Registry::Impl& Registry::impl() const {
  static Impl* instance = new Impl();  // intentionally leaked, see above
  return *instance;
}

Counter& Registry::counter(const std::string& name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  Counter*& entry = state.counters[name];
  if (entry == nullptr) entry = new Counter();
  return *entry;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  Gauge*& entry = state.gauges[name];
  if (entry == nullptr) entry = new Gauge();
  return *entry;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  Histogram*& entry = state.histograms[name];
  if (entry == nullptr) entry = new Histogram();
  return *entry;
}

MetricsReport Registry::snapshot() const {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  MetricsReport out;
  for (const auto& [name, counter] : state.counters)
    out.counters.emplace_hint(out.counters.end(), name, counter->value());
  for (const auto& [name, gauge] : state.gauges)
    out.gauges.emplace_hint(out.gauges.end(), name, gauge->value());
  for (const auto& [name, histogram] : state.histograms)
    out.histograms.emplace_hint(out.histograms.end(), name,
                                histogram->snapshot());
  return out;
}

void Registry::reset_values() {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  for (const auto& [name, counter] : state.counters) counter->reset();
  for (const auto& [name, gauge] : state.gauges) gauge->reset();
  for (const auto& [name, histogram] : state.histograms) histogram->reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

void start_trace() { detail::g_trace_active.store(true); }

bool trace_active() {
  return detail::g_trace_active.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> stop_trace() {
  detail::g_trace_active.store(false);
  std::vector<TraceEvent> events;
  {
    MutexLock lock(detail::g_trace_registry_mutex);
    for (const auto& trace : detail::g_thread_traces) {
      // Spans on live threads may still be appending (they loaded
      // g_trace_active before the store above); the per-trace lock makes
      // the drain atomic against each push.
      MutexLock trace_lock(trace->mutex);
      events.insert(events.end(), trace->events.begin(), trace->events.end());
      trace->events.clear();
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  return events;
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << event.name << "\",\"cat\":\"qtda\","
        << "\"ph\":\"X\",\"pid\":1,\"tid\":" << event.thread
        << ",\"ts\":" << static_cast<double>(event.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(event.duration_ns) / 1000.0
        << ",\"args\":{\"depth\":" << event.depth << "}}";
  }
  out << "]}";
  return out.str();
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<TraceEvent> events = stop_trace();
  std::ofstream file(path);
  if (!file) return false;
  file << chrome_trace_json(events) << '\n';
  return static_cast<bool>(file);
}

std::string render_text(const MetricsReport& report) {
  std::ostringstream out;
  if (!report.counters.empty()) {
    out << "telemetry counters:\n";
    for (const auto& [name, value] : report.counters)
      out << "  " << name << " = " << value << '\n';
  }
  if (!report.gauges.empty()) {
    out << "telemetry gauges:\n";
    for (const auto& [name, value] : report.gauges)
      out << "  " << name << " = " << value << '\n';
  }
  if (!report.histograms.empty()) {
    out << "telemetry histograms:\n";
    for (const auto& [name, histogram] : report.histograms) {
      out << "  " << name << ": count=" << histogram.count
          << " mean=" << histogram.mean()
          << " p50=" << histogram.quantile(0.50)
          << " p95=" << histogram.quantile(0.95)
          << " p99=" << histogram.quantile(0.99) << '\n';
    }
  }
  return out.str();
}

}  // namespace telemetry
}  // namespace qtda
