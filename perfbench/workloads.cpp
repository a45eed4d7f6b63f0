/// \file workloads.cpp
/// \brief qtda_perfbench: the closed-loop benchmark workloads of qtda.
///
///   qtda_perfbench --workload cold-features|serve-hot|serve-fresh
///                  --seed N --seconds S --trace 0|1 --socket PATH
///                  [--min-ops N] [--setup-only 1]
///
/// Runs one workload against the public API and prints one JSON object of
/// raw measurements on stdout (per-op latencies and outcomes, counter
/// deltas, benchmark spans, host context).  perfbench/run.py turns it into
/// the benchmark's metrics; perfbench/NOTES.md says why each workload
/// exists and what every number means.
///
/// Everything derived from --seed (inputs, ε, exact Betti references) is
/// generated before any timing starts.  The set-up warm-up of cold-features
/// and serve-fresh (windows and their ε) comes from a fixed seed, so it does
/// the same work on every run; serve-hot's warm pass sends the run's keys.
///
/// --setup-only 1 builds only the warm-up inputs, times one set-up and
/// prints {"setup_s": ...}.  Nothing before that set-up touches the shared
/// thread pool or the CPU probe, so the figure includes both; run.py takes
/// the median over several such processes.  An untraced run measures until
/// --seconds have passed and at least --min-ops ops were attempted.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "core/betti_estimator.hpp"
#include "core/pipeline.hpp"
#include "data/features.hpp"
#include "data/gearbox.hpp"
#include "linalg/expm_multiply.hpp"
#include "ml/takens.hpp"
#include "quantum/precision.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/rips.hpp"

#ifndef QTDA_PERFBENCH_BUILD_TYPE
#define QTDA_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace qtda;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kOrigin)
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Independent deterministic stream per (seed, purpose, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  SplitMix64 a(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
  SplitMix64 b(a.next() + index);
  return b.next();
}

// Stream tags: each input family draws from its own stream of the seed.
constexpr std::uint64_t kTagWindow = 1;
constexpr std::uint64_t kTagCalibration = 2;
constexpr std::uint64_t kTagRequest = 3;
constexpr std::uint64_t kTagShotSeed = 4;
constexpr std::uint64_t kTagDataset = 5;
/// Set-up warm-up inputs use this seed whatever --seed is.
constexpr std::uint64_t kWarmupSeed = 0x5eed0fa11;

// ---------------------------------------------------------------------------
// Benchmark spans: name, start, end, parent, op id.  One log per client
// thread, kept in memory and written with the result at exit.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::uint64_t op;
  std::int64_t parent;  ///< index in the same log, -1 for a root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::int64_t open(const char* name, std::uint64_t op) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, op, parent, now_ns(), 0});
    stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(std::int64_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t op)
      : log_(log), index_(log.open(name, op)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

/// Calls \p fn inside a span named \p name and returns its result.
template <typename Fn>
auto in_span(SpanLog& log, const char* name, std::uint64_t op, Fn&& fn) {
  ScopedSpan span(log, name, op);
  return fn();
}

// ---------------------------------------------------------------------------
// Per-op outcomes.  A 45 s serve-hot run completes ~70k ops, so the record
// kept for every op is small: it must not grow the process's peak RSS.
// ---------------------------------------------------------------------------

/// Failures found by the benchmark itself; positive codes are the daemon's
/// ServeErrorCode values.
enum BenchError : std::int32_t {
  kTransportError = -1,   ///< connection failed or closed without a reply
  kException = -2,        ///< a library call threw
  kWrongExactBetti = -3,  ///< the pipeline's exact β_k differs from ours
  kInvalidEstimate = -4,  ///< β̃ negative, non-finite or above 2^q
  kWrongResponseId = -5,  ///< a reply for another request
};

std::string error_name(std::int32_t code) {
  switch (code) {
    case 0: return "";
    case kTransportError: return "transport";
    case kException: return "exception";
    case kWrongExactBetti: return "wrong_exact_betti";
    case kInvalidEstimate: return "invalid_estimate";
    case kWrongResponseId: return "wrong_response_id";
    default: return serve_error_name(static_cast<ServeErrorCode>(code));
  }
}

struct OpRecord {
  std::uint64_t index = 0;       ///< position in the input stream
  std::uint64_t latency_ns = 0;  ///< as the calling client observes it
  std::uint64_t end_ns = 0;      ///< completion, from the phase start
  double abs_error = 0.0;        ///< Σ |β̃_k − β_k| over the op's estimates
  std::uint32_t estimates = 0;   ///< estimates delivered by the op
  std::int32_t error = 0;        ///< 0 = ok, else a failure code
};

/// What an op produced beyond its record: summed per phase, or kept for
/// the ops the output check re-derives.
struct OpDetail {
  double simplices = 0.0;        ///< Σ (|S_k| + |S_{k+1}|)
  double register_qubits = 0.0;  ///< Σ simulated register width
  double oracle_rhs = 0.0;       ///< Σ 2^(width − q − 1) gathered vectors
  std::array<double, 2> betti{};         ///< β̃ per estimate
  std::array<std::uint64_t, 2> zeros{};  ///< zero counts per estimate
};

struct Checked {
  std::uint64_t index;
  OpDetail detail;
};

/// Ops whose outputs the check re-derives: the first few plus a fixed
/// stride, so the sample does not depend on timing.
bool in_check_sample(std::uint64_t index) {
  return index < 12 || index % 97 == 0;
}

struct Phase {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process user + sys CPU over the phase
  /// VmHWM once min_ops ops have completed: a fixed amount of work, since
  /// serve-fresh's resident memory grows with every connection served.
  double vm_hwm_kb = 0.0;
  std::vector<OpRecord> ops;
  OpDetail sums;       ///< simplices, register_qubits, oracle_rhs summed
  std::vector<Checked> checked;
  std::vector<std::vector<SpanRecord>> span_logs;  ///< one per client thread
};

/// Counter and histogram deltas over the traced phases.
struct CounterDelta {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  ///< count, sum

  void add(const MetricsReport& before, const MetricsReport& after) {
    for (const auto& [name, value] : after.counters) {
      const auto it = before.counters.find(name);
      const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
      counters[name] += static_cast<double>(value - base);
    }
    for (const auto& [name, snapshot] : after.histograms) {
      const auto it = before.histograms.find(name);
      std::uint64_t count = snapshot.count, sum = snapshot.sum;
      if (it != before.histograms.end()) {
        count -= it->second.count;
        sum -= it->second.sum;
      }
      auto& slot = histograms[name];
      slot.first += static_cast<double>(count);
      slot.second += static_cast<double>(sum);
    }
  }
};

// ---------------------------------------------------------------------------
// Host context.
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// A field of /proc/self/status in kB (VmHWM, VmSize, ...); 0 if absent.
double proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0)
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
  }
  return 0.0;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0, steal = 0.0, value = 0.0;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

/// Fixed single-thread integer + floating-point loop; the median of three
/// timings in ms.  Run before and after a run, it tells a drifting host
/// apart from a slow program.
double calibration_loop_ms() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t start = now_ns();
    SplitMix64 rng(12345);
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      const std::uint64_t x = rng.next();
      acc += std::sqrt(static_cast<double>(x >> 11) + acc * 1e-9);
    }
    times.push_back(seconds_since(start) * 1e3);
    if (acc < 0.0) std::fprintf(stderr, "unreachable\n");
  }
  return median(times);
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// Point clouds stored flat, so the inputs of a whole run add little to
/// the process's resident memory.
class CloudSet {
 public:
  void add(const PointCloud& cloud) {
    for (const auto& point : cloud.points())
      coords_.insert(coords_.end(), point.begin(), point.end());
    offsets_.push_back(coords_.size());
    dims_.push_back(cloud.dimension());
  }
  std::size_t size() const { return dims_.size(); }
  std::vector<std::vector<double>> points(std::size_t i) const {
    std::vector<std::vector<double>> out;
    for (std::size_t at = offsets_[i]; at < offsets_[i + 1]; at += dims_[i])
      out.emplace_back(coords_.begin() + static_cast<std::ptrdiff_t>(at),
                       coords_.begin() +
                           static_cast<std::ptrdiff_t>(at + dims_[i]));
    return out;
  }
  PointCloud cloud(std::size_t i) const { return PointCloud(points(i)); }

 private:
  std::vector<double> coords_;
  std::vector<std::size_t> offsets_{0};
  std::vector<std::size_t> dims_;
};

/// Largest pairwise distance of a cloud.
double diameter(const PointCloud& cloud) {
  double dmax = 0.0;
  for (std::size_t i = 0; i < cloud.size(); ++i)
    for (std::size_t j = i + 1; j < cloud.size(); ++j)
      dmax = std::max(dmax, cloud.distance(i, j));
  return dmax;
}

double median_diameter(const CloudSet& clouds) {
  std::vector<double> diameters;
  for (std::size_t i = 0; i < clouds.size(); ++i)
    diameters.push_back(diameter(clouds.cloud(i)));
  return median(diameters);
}

/// \p count Takens-embedded (d=3, τ=4) 500-sample gearbox windows, classes
/// alternating, healthy first.  Every window is its own recording: one
/// recording per class would fix the harmonic phases for a whole run, and
/// op cost would then differ up to 2× between seeds.
CloudSet gearbox_windows(std::uint64_t seed, std::uint64_t tag,
                         std::size_t count, std::size_t stride) {
  constexpr std::size_t kWindow = 500;
  const GearboxSignalOptions signal;
  TakensOptions takens;
  takens.dimension = 3;
  takens.delay = 4;
  takens.stride = stride;
  CloudSet clouds;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(mix(seed, tag, i));
    const auto recording = generate_gearbox_signal(
        i % 2 == 0 ? GearboxCondition::kHealthy
                   : GearboxCondition::kSurfaceFault,
        kWindow, signal, rng);
    clouds.add(takens_embedding(recording, takens));
  }
  return clouds;
}

/// ε = \p factor × median diameter of a fixed-size calibration set drawn
/// from the seed, so ε never depends on how long a run is.  256 windows put
/// ε within ~1% across seeds.
double window_epsilon(std::uint64_t seed, std::size_t stride, double factor) {
  return factor *
         median_diameter(gearbox_windows(seed, kTagCalibration, 256, stride));
}

struct ExactBetti {
  std::array<std::size_t, 2> betti{};      ///< β_0, β_1
  std::array<std::size_t, 2> simplices{};  ///< |S_k| + |S_{k+1}| for k = 0, 1
};

std::vector<ExactBetti> exact_betti(const CloudSet& clouds, double epsilon) {
  std::vector<ExactBetti> out;
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    const SimplicialComplex complex =
        rips_complex(clouds.cloud(i), epsilon, 2);
    ExactBetti exact;
    for (int k = 0; k < 2; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      exact.betti[kk] = betti_number(complex, k);
      exact.simplices[kk] = complex.count(k) + complex.count(k + 1);
    }
    out.push_back(exact);
  }
  return out;
}

/// Right-hand sides one oracle call gathers: every basis state of the
/// register outside the q system qubits and the control qubit.
double oracle_rhs(std::size_t width, std::size_t q) {
  return width > q ? std::ldexp(1.0, static_cast<int>(width - q - 1)) : 0.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Constructs the system and runs the fixed warm-up; returns seconds.
  virtual double setup() = 0;
  /// Stops the system built by setup() and waits for its threads.
  virtual void teardown() = 0;
  virtual int clients() const = 0;
  virtual std::uint64_t stream_size() const = 0;
  /// Runs the op at \p index of the measured stream on client \p client.
  virtual OpRecord run_op(int client, std::uint64_t index, SpanLog& log,
                          OpDetail& detail) = 0;
  /// Counters of the layers under test (registry, metrics verb, caches).
  virtual MetricsReport counters() = 0;
  /// Switches between the system's shipped telemetry default and full
  /// collection for a traced phase.
  virtual void set_traced(bool traced) = 0;
  /// Re-derives the first checked ops from the library, appends one
  /// message per mismatch and returns how many ops it checked.
  virtual std::size_t check(const std::vector<Checked>& checked,
                            std::vector<std::string>& mismatches) = 0;
};

/// cold-features: extract_betti_features on a stream of distinct windows,
/// from one calling thread.
class ColdFeatures final : public Workload {
 public:
  ColdFeatures(std::uint64_t seed, std::size_t stream)
      : seed_(seed),
        epsilon_(window_epsilon(seed, kStride, 0.15)),
        clouds_(gearbox_windows(seed, kTagWindow, stream, kStride)),
        exact_(exact_betti(clouds_, epsilon_)),
        warmup_epsilon_(window_epsilon(kWarmupSeed, kStride, 0.15)),
        warmup_(gearbox_windows(kWarmupSeed, kTagWindow, 6, kStride)) {}

  double setup() override {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < warmup_.size(); ++i)
      extract_betti_features(
          warmup_.cloud(i),
          options(warmup_epsilon_, mix(kWarmupSeed, kTagShotSeed, i)));
    return seconds_since(start);
  }
  void teardown() override {}
  int clients() const override { return 1; }
  std::uint64_t stream_size() const override { return clouds_.size(); }

  OpRecord run_op(int, std::uint64_t index, SpanLog& log,
                  OpDetail& detail) override {
    OpRecord record;
    record.index = index;
    const PipelineOptions opts =
        options(epsilon_, mix(seed_, kTagShotSeed, index));
    const std::uint64_t start = now_ns();
    const PointCloud cloud = clouds_.cloud(index);
    std::array<std::size_t, 2> exact{};
    std::array<std::size_t, 2> width{}, qubits{};
    try {
      if (!traced_) {
        const PipelineFeatures features = extract_betti_features(cloud, opts);
        for (std::size_t k = 0; k < 2; ++k) {
          detail.betti[k] = features.estimated[k];
          exact[k] = features.exact[k];
        }
      } else {
        // The calls extract_betti_features makes, one span each.
        ScopedSpan op_span(log, "op", index);
        const SimplicialComplex complex =
            in_span(log, "topology.rips", index,
                    [&] { return rips_complex(cloud, opts.epsilon, 2); });
        for (int k = 0; k < 2; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          BettiEstimate estimate;  // estimate_betti's zero when |S_k| = 0
          if (complex.count(k) != 0) {
            const SparseMatrix laplacian =
                in_span(log, "topology.laplacian", index, [&] {
                  return sparse_combinatorial_laplacian(complex, k);
                });
            const CompiledEstimate compiled =
                in_span(log, "core.compile", index, [&] {
                  return compile_betti_estimate(laplacian, opts.estimator);
                });
            estimate = in_span(log, "core.execute", index, [&] {
              return estimate_betti_with_plan(compiled, opts.estimator);
            });
          }
          exact[kk] = in_span(log, "topology.exact_betti", index,
                              [&] { return betti_number(complex, k); });
          detail.betti[kk] = estimate.estimated_betti;
          detail.zeros[kk] = estimate.zero_counts;
          width[kk] = estimate.total_qubits;
          qubits[kk] = estimate.system_qubits;
        }
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cold-features op %llu: %s\n",
                   static_cast<unsigned long long>(index), error.what());
      record.error = kException;
    }
    record.latency_ns = now_ns() - start;
    if (record.error != 0) return record;
    const ExactBetti& reference = exact_[index];
    for (std::size_t k = 0; k < 2; ++k) {
      if (exact[k] != reference.betti[k]) record.error = kWrongExactBetti;
      if (!std::isfinite(detail.betti[k]) || detail.betti[k] < 0.0)
        record.error = kInvalidEstimate;
      record.abs_error +=
          std::fabs(detail.betti[k] - static_cast<double>(reference.betti[k]));
      detail.simplices += static_cast<double>(reference.simplices[k]);
      detail.register_qubits += static_cast<double>(width[k]);
      detail.oracle_rhs += oracle_rhs(width[k], qubits[k]);
    }
    record.estimates = record.error == 0 ? 2 : 0;
    return record;
  }

  MetricsReport counters() override {
    MetricsReport report = collect_metrics(nullptr);
    const ExpmCoefficientCacheStats expm = expm_coefficient_cache_stats();
    report.counters["cache.expm.hits"] = expm.hits;
    report.counters["cache.expm.misses"] = expm.misses;
    return report;
  }

  void set_traced(bool traced) override {
    traced_ = traced;
    telemetry::set_enabled(traced);  // the library ships with telemetry off
  }

  std::size_t check(const std::vector<Checked>& checked,
                    std::vector<std::string>& mismatches) override {
    const std::size_t count = std::min<std::size_t>(checked.size(), 4);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t index = checked[i].index;
      const PipelineOptions opts =
          options(epsilon_, mix(seed_, kTagShotSeed, index));
      const SimplicialComplex complex =
          rips_complex(clouds_.cloud(index), opts.epsilon, 2);
      for (int k = 0; k < 2; ++k) {
        const BettiEstimate reference =
            estimate_betti(complex, k, opts.estimator);
        if (!same_bits(reference.estimated_betti,
                       checked[i].detail.betti[static_cast<std::size_t>(k)]))
          mismatches.push_back("cold-features op " + std::to_string(index) +
                               " k=" + std::to_string(k) +
                               ": estimate differs from estimate_betti");
      }
    }
    return count;
  }

 private:
  static constexpr std::size_t kStride = 12;

  static PipelineOptions options(double epsilon, std::uint64_t shot_seed) {
    PipelineOptions opts;
    opts.epsilon = epsilon;
    opts.dimensions = {0, 1};
    opts.estimator.backend = EstimatorBackend::kCircuitSparse;
    opts.estimator.mixed_state = MixedStateMode::kPurification;
    opts.estimator.precision_qubits = 3;
    opts.estimator.shots = 1000;
    opts.estimator.seed = shot_seed;
    return opts;
  }

  std::uint64_t seed_;
  double epsilon_;
  CloudSet clouds_;
  std::vector<ExactBetti> exact_;
  double warmup_epsilon_;  ///< fixed, so set-up work never depends on --seed
  CloudSet warmup_;
  bool traced_ = false;
};

/// Parameters that tell serve-hot and serve-fresh apart.
struct ServeConfig {
  int clients = 2;                 ///< closed-loop client threads
  bool fresh_connections = false;  ///< connect/estimate/close per request
  std::size_t precision_qubits = 5;
  std::size_t cache_budget_bytes = 0;  ///< 0 = ServerOptions default
};

/// One estimate request of a stream: which cloud, which k.
struct RequestKey {
  std::size_t cloud = 0;
  int k = 0;
};

/// serve-hot and serve-fresh: an in-process BettiServer on the daemon's
/// Unix-socket transport, driven by closed-loop clients.
class ServeWorkload final : public Workload {
 public:
  /// \p key maps a stream index to its (cloud, k) of \p clouds; the set-up
  /// warm-up sends \p warmup over \p warmup_clouds at \p warmup_epsilon.
  ServeWorkload(std::string socket_path, std::uint64_t seed, ServeConfig config,
                double epsilon, CloudSet clouds,
                std::function<RequestKey(std::uint64_t)> key,
                std::uint64_t stream, double warmup_epsilon,
                CloudSet warmup_clouds, std::vector<RequestKey> warmup)
      : socket_path_(std::move(socket_path)),
        seed_(seed),
        config_(config),
        epsilon_(epsilon),
        clouds_(std::move(clouds)),
        exact_(exact_betti(clouds_, epsilon_)),
        key_(std::move(key)),
        stream_(stream),
        warmup_epsilon_(warmup_epsilon),
        warmup_clouds_(std::move(warmup_clouds)),
        warmup_(std::move(warmup)) {}

  ~ServeWorkload() override { teardown(); }

  double setup() override {
    const std::uint64_t start = now_ns();
    ServerOptions options;
    if (config_.cache_budget_bytes != 0)
      options.cache.budget_bytes = config_.cache_budget_bytes;
    server_ = std::make_unique<BettiServer>(options);
    transport_ = std::make_unique<UnixSocketTransport>(socket_path_);
    server_->start(*transport_);
    if (!config_.fresh_connections) {
      for (int c = 0; c < clients(); ++c)
        connections_.push_back(connect_unix(socket_path_));
    }
    // Warm-up: every client, closed loop, over inputs outside the stream.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients(); ++c) {
      threads.emplace_back([&, c] {
        SpanLog untraced(false);
        for (std::size_t i = next.fetch_add(1); i < warmup_.size();
             i = next.fetch_add(1)) {
          const EstimateRequest request = make_request(
              warmup_clouds_, warmup_[i], warmup_epsilon_,
              mix(kWarmupSeed, kTagShotSeed, i), "w" + std::to_string(i));
          try {
            if (!round_trip(c, request, 0, untraced).ok) failures.fetch_add(1);
          } catch (const std::exception&) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = seconds_since(start);
    if (failures.load() != 0)
      throw std::runtime_error("set-up warm-up requests failed");
    control_ = std::make_unique<ServeClient>(connect_unix(socket_path_));
    return seconds;
  }

  void teardown() override {
    if (server_ == nullptr) return;
    control_.reset();
    for (auto& connection : connections_) connection->close();
    connections_.clear();
    server_->stop();
    server_.reset();
    transport_.reset();
  }

  int clients() const override { return config_.clients; }
  std::uint64_t stream_size() const override { return stream_; }

  OpRecord run_op(int client, std::uint64_t index, SpanLog& log,
                  OpDetail& detail) override {
    OpRecord record;
    record.index = index;
    const RequestKey key = key_(index);
    const EstimateRequest request =
        make_request(clouds_, key, epsilon_, mix(seed_, kTagShotSeed, index),
                     std::to_string(index));
    const std::uint64_t start = now_ns();
    EstimateResponse response;
    try {
      ScopedSpan op_span(log, "op", index);
      response = round_trip(client, request, index, log);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "request %llu: %s\n",
                   static_cast<unsigned long long>(index), error.what());
      response = EstimateResponse{};
    }
    record.latency_ns = now_ns() - start;
    if (!response.ok) {
      record.error = response.code == ServeErrorCode::kNone
                         ? kTransportError
                         : static_cast<std::int32_t>(response.code);
      return record;
    }
    const BettiEstimate& estimate = response.estimate;
    const double cap = std::ldexp(1.0, static_cast<int>(estimate.system_qubits));
    if (response.id != request.id) {
      record.error = kWrongResponseId;
    } else if (!std::isfinite(estimate.estimated_betti) ||
               estimate.estimated_betti < 0.0 ||
               estimate.estimated_betti > cap) {
      record.error = kInvalidEstimate;
    }
    if (record.error != 0) return record;
    const ExactBetti& exact = exact_[key.cloud];
    const auto kk = static_cast<std::size_t>(key.k);
    record.estimates = 1;
    record.abs_error = std::fabs(estimate.estimated_betti -
                                 static_cast<double>(exact.betti[kk]));
    detail.betti[0] = estimate.estimated_betti;
    detail.zeros[0] = estimate.zero_counts;
    detail.simplices = static_cast<double>(exact.simplices[kk]);
    detail.register_qubits = static_cast<double>(estimate.total_qubits);
    detail.oracle_rhs =
        oracle_rhs(estimate.total_qubits, estimate.system_qubits);
    return record;
  }

  MetricsReport counters() override { return control_->metrics(); }

  void set_traced(bool) override {}  // the daemon ships with telemetry on

  /// The serving layer's bit-identity contract: a served estimate equals
  /// estimate_betti on the same complex, options and seed.
  std::size_t check(const std::vector<Checked>& checked,
                    std::vector<std::string>& mismatches) override {
    const std::size_t count = std::min<std::size_t>(checked.size(), 24);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t index = checked[i].index;
      const RequestKey key = key_(index);
      const EstimateRequest request = make_request(
          clouds_, key, epsilon_, mix(seed_, kTagShotSeed, index), "check");
      const BettiEstimate reference = estimate_betti(
          rips_complex(clouds_.cloud(key.cloud), epsilon_, key.k + 1), key.k,
          request.options);
      const OpDetail& served = checked[i].detail;
      if (reference.zero_counts != served.zeros[0] ||
          !same_bits(reference.estimated_betti, served.betti[0]))
        mismatches.push_back("served request " + std::to_string(index) +
                             ": zero_counts " + std::to_string(served.zeros[0]) +
                             ", estimate_betti gives " +
                             std::to_string(reference.zero_counts));
    }
    return count;
  }

 private:
  EstimateRequest make_request(const CloudSet& clouds, RequestKey key,
                               double epsilon, std::uint64_t shot_seed,
                               std::string id) const {
    EstimateRequest request;
    request.id = std::move(id);
    request.epsilon = epsilon;
    request.k = key.k;
    request.options.backend = EstimatorBackend::kCircuitSparse;
    request.options.mixed_state = MixedStateMode::kPurification;
    request.options.precision_qubits = config_.precision_qubits;
    request.options.shots = 100;
    request.options.seed = shot_seed;
    request.points = clouds.points(key.cloud);
    return request;
  }

  /// One blocking request/response exchange, as a client observes it.
  /// A reply that never comes leaves the response not ok, code kNone.
  EstimateResponse round_trip(int client, const EstimateRequest& request,
                              std::uint64_t op, SpanLog& log) {
    std::shared_ptr<Connection> connection;
    if (config_.fresh_connections) {
      ScopedSpan span(log, "serve.connect", op);
      connection = connect_unix(socket_path_);
    } else {
      connection = connections_[static_cast<std::size_t>(client)];
    }
    const std::string line = in_span(log, "serve.protocol", op,
                                     [&] { return format_request(request); });
    std::optional<std::string> reply;
    if (connection->write_line(line)) reply = connection->read_line();
    EstimateResponse response;
    if (reply) {
      response = in_span(log, "serve.protocol", op,
                         [&] { return parse_response(*reply); });
    }
    if (config_.fresh_connections) connection->close();
    return response;
  }

  std::string socket_path_;
  std::uint64_t seed_;
  ServeConfig config_;
  double epsilon_;
  CloudSet clouds_;
  std::vector<ExactBetti> exact_;
  std::function<RequestKey(std::uint64_t)> key_;
  std::uint64_t stream_;
  double warmup_epsilon_;
  CloudSet warmup_clouds_;
  std::vector<RequestKey> warmup_;

  std::unique_ptr<BettiServer> server_;
  std::unique_ptr<UnixSocketTransport> transport_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::unique_ptr<ServeClient> control_;
};

/// serve-hot: Table 1's 255 feature clouds, keys drawn from a seeded
/// sequence over the 510 (cloud, k) pairs.  \p measured = false builds
/// only what set-up needs: no stream, no exact references.
std::unique_ptr<Workload> make_serve_hot(const std::string& socket,
                                         std::uint64_t seed, bool measured) {
  Rng rng(mix(seed, kTagDataset, 0));
  CloudSet clouds;
  for (const auto& sample : generate_gearbox_feature_dataset(
           255, 51, 512, GearboxSignalOptions{}, rng))
    clouds.add(feature_point_cloud(sample.features));
  const double epsilon = 0.75 * median_diameter(clouds);
  // The warm pass sends every key once, so every cache level hits for the
  // whole measured phase.
  std::vector<RequestKey> warmup;
  for (std::size_t c = 0; c < clouds.size(); ++c)
    for (int k = 0; k < 2; ++k) warmup.push_back({c, k});
  const std::uint64_t keys = warmup.size();
  auto key = [seed, keys](std::uint64_t index) {
    const std::uint64_t draw = mix(seed, kTagRequest, index) % keys;
    return RequestKey{static_cast<std::size_t>(draw / 2),
                      static_cast<int>(draw % 2)};
  };
  CloudSet warm_clouds = clouds;
  return std::make_unique<ServeWorkload>(
      socket, seed, ServeConfig{}, epsilon,
      measured ? std::move(clouds) : CloudSet{}, key,
      measured ? std::numeric_limits<std::uint64_t>::max() : 0, epsilon,
      std::move(warm_clouds), std::move(warmup));
}

/// serve-fresh: a new Takens window with every request, k alternating.
std::unique_ptr<Workload> make_serve_fresh(const std::string& socket,
                                           std::uint64_t seed,
                                           std::size_t stream) {
  constexpr std::size_t kStride = 14;
  CloudSet warm_clouds = gearbox_windows(kWarmupSeed, kTagWindow, 32, kStride);
  std::vector<RequestKey> warmup;
  for (std::size_t i = 0; i < warm_clouds.size(); ++i)
    warmup.push_back({i, static_cast<int>(i % 2)});
  auto key = [](std::uint64_t index) {
    return RequestKey{static_cast<std::size_t>(index),
                      static_cast<int>(index % 2)};
  };
  // One client: the daemon's single worker runs one request at a time, so a
  // second client would only add queue wait, and its connects would run on
  // the cores executing the request (NOTES.md, Workloads).
  ServeConfig config;
  config.clients = 1;
  config.fresh_connections = true;
  config.precision_qubits = 3;
  // Small enough that every cache level evicts within the first seconds.
  config.cache_budget_bytes = std::size_t{2} << 20;
  return std::make_unique<ServeWorkload>(
      socket, seed, config, window_epsilon(seed, kStride, 0.15),
      gearbox_windows(seed, kTagWindow, stream, kStride), key, stream,
      window_epsilon(kWarmupSeed, kStride, 0.15), std::move(warm_clouds),
      std::move(warmup));
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

/// Runs the workload's clients closed loop until \p seconds have passed and
/// the ops at stream positions below \p min_ops were attempted, or until
/// the stream runs out; \p next is the shared stream position.  Reads
/// VmHWM when the min_ops-th op completes.
Phase run_phase(Workload& workload, double seconds, bool traced,
                std::atomic<std::uint64_t>& next, std::uint64_t min_ops) {
  struct Client {
    std::vector<OpRecord> ops;
    OpDetail sums;
    std::vector<Checked> checked;
    SpanLog log{false};
  };
  Phase phase;
  phase.traced = traced;
  workload.set_traced(traced);
  std::vector<Client> clients(static_cast<std::size_t>(workload.clients()));
  for (Client& client : clients) {
    client.ops.reserve(std::size_t{1} << 16);
    client.log = SpanLog(traced);
  }
  const double cpu_start = process_cpu_seconds();
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      for (;;) {
        const std::uint64_t index = next.fetch_add(1);
        if (index >= workload.stream_size()) return;
        if (index >= min_ops && now_ns() >= deadline) return;
        OpDetail detail;
        client.ops.push_back(
            workload.run_op(static_cast<int>(c), index, client.log, detail));
        client.ops.back().end_ns = now_ns() - start;
        if (completed.fetch_add(1) + 1 == min_ops)
          phase.vm_hwm_kb = proc_status_kb("VmHWM");
        if (client.ops.back().error != 0) continue;
        client.sums.simplices += detail.simplices;
        client.sums.register_qubits += detail.register_qubits;
        client.sums.oracle_rhs += detail.oracle_rhs;
        if (in_check_sample(index)) client.checked.push_back({index, detail});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.wall_s = seconds_since(start);
  phase.cpu_s = process_cpu_seconds() - cpu_start;
  workload.set_traced(false);
  for (Client& client : clients) {
    phase.ops.insert(phase.ops.end(), client.ops.begin(), client.ops.end());
    phase.sums.simplices += client.sums.simplices;
    phase.sums.register_qubits += client.sums.register_qubits;
    phase.sums.oracle_rhs += client.sums.oracle_rhs;
    phase.checked.insert(phase.checked.end(), client.checked.begin(),
                         client.checked.end());
    phase.span_logs.push_back(client.log.spans());
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Output: one JSON object, read by run.py.
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& name) {
    separate();
    out_ << '"' << name << "\":";
    after_key_ = true;
    return *this;
  }
  Json& num(double value) {
    separate();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out_ << buffer;
    return *this;
  }
  Json& str(const std::string& value) {
    separate();
    out_ << '"' << value << '"';
    return *this;
  }
  Json& open(char bracket) {
    separate();
    out_ << bracket;
    first_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ << bracket;
    first_ = false;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void separate() {
    if (after_key_) {
      after_key_ = false;
    } else if (!first_) {
      out_ << ',';
    }
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
  bool after_key_ = false;
};

void write_phase(Json& json, const Phase& phase) {
  json.open('{');
  json.key("traced").num(phase.traced ? 1 : 0);
  json.key("wall_s").num(phase.wall_s);
  json.key("cpu_s").num(phase.cpu_s);
  json.key("simplices").num(phase.sums.simplices);
  json.key("register_qubits").num(phase.sums.register_qubits);
  json.key("oracle_rhs").num(phase.sums.oracle_rhs);
  // ops: [index, latency_ns, error, estimates, abs_error, end_ns]
  json.key("ops").open('[');
  for (const OpRecord& op : phase.ops) {
    json.open('[')
        .num(static_cast<double>(op.index))
        .num(static_cast<double>(op.latency_ns))
        .str(error_name(op.error))
        .num(op.estimates)
        .num(op.abs_error)
        .num(static_cast<double>(op.end_ns))
        .close(']');
  }
  json.close(']');
  // spans: one list per client thread of [name, op, parent, start, end].
  json.key("spans").open('[');
  for (const auto& log : phase.span_logs) {
    json.open('[');
    for (const SpanRecord& span : log) {
      json.open('[')
          .str(span.name)
          .num(static_cast<double>(span.op))
          .num(static_cast<double>(span.parent))
          .num(static_cast<double>(span.start_ns))
          .num(static_cast<double>(span.end_ns))
          .close(']');
    }
    json.close(']');
  }
  json.close(']');
  json.close('}');
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket = "perfbench.sock";
  std::uint64_t min_ops = 0;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--socket") args.socket = value;
    else if (flag == "--min-ops") args.min_ops = std::stoull(value);
    else if (flag == "--setup-only") args.setup_only = value == "1";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// The workload named by \p args; with \p measured = false only what its
/// set-up needs (an empty stream, no exact references).
std::unique_ptr<Workload> make_workload(const Args& args, bool measured) {
  // The window streams hold 2-3x what a run consumes on this code (~18
  // ops/s cold, ~70 requests/s fresh) and at least --min-ops; a run that
  // exhausts one ends early.
  const auto stream = [&](double per_second) -> std::size_t {
    if (!measured) return 0;
    return static_cast<std::size_t>(std::max(
               per_second * args.seconds, static_cast<double>(args.min_ops))) +
           64;
  };
  if (args.workload == "cold-features")
    return std::make_unique<ColdFeatures>(args.seed, stream(50.0));
  if (args.workload == "serve-hot")
    return make_serve_hot(args.socket, args.seed, measured);
  if (args.workload == "serve-fresh")
    return make_serve_fresh(args.socket, args.seed, stream(150.0));
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

int run(const Args& args) {
  if (args.setup_only) {
    std::unique_ptr<Workload> workload = make_workload(args, false);
    const double seconds = workload->setup();
    workload->teardown();
    std::printf("{\"setup_s\":%.17g}\n", seconds);
    return 0;
  }
  const double calib_before_ms = calibration_loop_ms();

  // Inputs and exact references, before any timing.
  const std::uint64_t input_start = now_ns();
  std::unique_ptr<Workload> workload = make_workload(args, true);
  const double input_s = seconds_since(input_start);

  const auto steal_start = cpu_steal_jiffies();
  workload->setup();

  std::atomic<std::uint64_t> next{0};
  std::vector<Phase> phases;
  CounterDelta traced_delta;
  if (!args.trace) {
    phases.push_back(
        run_phase(*workload, args.seconds, false, next, args.min_ops));
  } else {
    // Untraced and traced quarters alternate, so host drift does not pass
    // for tracing overhead.
    for (int quarter = 0; quarter < 4; ++quarter) {
      const bool traced = quarter % 2 == 1;
      MetricsReport before;
      if (traced) before = workload->counters();
      phases.push_back(
          run_phase(*workload, args.seconds / 4.0, traced, next, 0));
      if (traced) traced_delta.add(before, workload->counters());
    }
  }
  const double vm_size_kb = proc_status_kb("VmSize");
  // Plan shape over the whole run: serve-hot compiles only while warming.
  const MetricsReport registry = collect_metrics(nullptr);
  workload->teardown();
  const auto steal_end = cpu_steal_jiffies();

  std::vector<Checked> checked;
  for (const Phase& phase : phases)
    checked.insert(checked.end(), phase.checked.begin(), phase.checked.end());
  std::sort(checked.begin(), checked.end(),
            [](const Checked& a, const Checked& b) { return a.index < b.index; });
  std::vector<std::string> mismatches;
  const std::size_t checked_ops = workload->check(checked, mismatches);
  for (const std::string& message : mismatches)
    std::fprintf(stderr, "MISMATCH %s\n", message.c_str());

  const double calib_after_ms = calibration_loop_ms();
  const double jiffies = steal_end.second - steal_start.second;

  Json json;
  json.open('{');
  json.key("workload").str(args.workload);
  json.key("seed").num(static_cast<double>(args.seed));
  json.key("trace").num(args.trace ? 1 : 0);
  json.key("host").open('{');
  json.key("nproc").num(static_cast<double>(std::thread::hardware_concurrency()));
  json.key("pool_threads").num(static_cast<double>(ThreadPool::shared().size()));
  json.key("simd").str(simd_level_name(active_simd_level()));
  json.key("precision").str(
      precision_name(precision_from_env().value_or(Precision::kFloat64)));
  json.key("build_type").str(QTDA_PERFBENCH_BUILD_TYPE);
  json.key("steal_frac").num(
      jiffies > 0.0 ? (steal_end.first - steal_start.first) / jiffies : 0.0);
  json.key("calib_before_ms").num(calib_before_ms);
  json.key("calib_after_ms").num(calib_after_ms);
  json.key("input_s").num(input_s);
  json.close('}');
  json.key("vm_hwm_kb").num(phases.front().vm_hwm_kb);
  json.key("vm_size_kb").num(vm_size_kb);
  json.key("stream_size").num(static_cast<double>(
      std::min<std::uint64_t>(workload->stream_size(), 1ULL << 53)));
  json.key("checked").num(static_cast<double>(checked_ops));
  json.key("checked_mismatches").num(static_cast<double>(mismatches.size()));
  json.key("run_counters").open('{');
  for (const char* name : {"compiler.compilations", "compiler.gates_after"}) {
    const auto it = registry.counters.find(name);
    json.key(name).num(it == registry.counters.end()
                           ? 0.0
                           : static_cast<double>(it->second));
  }
  json.close('}');
  json.key("counters").open('{');
  for (const auto& [name, value] : traced_delta.counters)
    json.key(name).num(value);
  json.close('}');
  json.key("histograms").open('{');
  for (const auto& [name, value] : traced_delta.histograms)
    json.key(name).open('[').num(value.first).num(value.second).close(']');
  json.close('}');
  json.key("phases").open('[');
  for (const Phase& phase : phases) write_phase(json, phase);
  json.close(']');
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "qtda_perfbench: %s\n", error.what());
    return 1;
  }
}
