/// \file load_gen.cpp
/// \brief Open-loop Poisson load generator for the serving layer.
///
/// Closes the ROADMAP's "open-loop load generator" item: arrivals follow a
/// deterministic Poisson process (exponential gaps drawn from qtda::Rng, so
/// the schedule is identical on every host) and are *not* gated on
/// responses — a slow server accumulates queue, exactly the regime where
/// closed-loop drivers flatter tail latency.  One benchmark iteration runs
/// a full experiment against an in-process BettiServer over the loopback
/// transport:
///
///   arrival thread  — sleeps to each precomputed absolute arrival time and
///                     writes the request line (never blocks on reads);
///   collector thread — reads response lines as they complete (possibly out
///                     of order) and records client-observed latency into a
///                     telemetry::Histogram.
///
/// Counters: p50/p95/p99_ms from the histogram's deterministic buckets,
/// est_per_sec (completed estimates over the experiment wall time),
/// offered_rps for reference, and err_<code> per-taxonomy-code error
/// counts.  scripts/bench.sh records this binary into BENCH_micro.json
/// like every other bench_micro_* target.
///
/// BM_OverloadShedding floods a deliberately tiny server (one worker,
/// batching off, admission queue bounded at a handful of entries) with
/// closed-loop retrying clients: the server must shed the excess with
/// retryable `overloaded` errors instead of growing without bound, and
/// every request must eventually succeed with the correct (bit-identical)
/// result once the clients back off.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "serve/client.hpp"
#include "serve/errors.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using namespace qtda;
using Clock = std::chrono::steady_clock;

std::vector<std::vector<double>> circle_points(std::size_t n) {
  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n);
    points.push_back({std::cos(angle), std::sin(angle)});
  }
  return points;
}

/// The q=10 warm-path request micro_serve benchmarks: complete Rips graph
/// on a 33-point circle, sampled-basis mixture, few shots.  Every arrival
/// uses the same key, so after the warm-up request all cache levels hit and
/// the experiment measures queueing + plan execution, not compilation.
EstimateRequest load_request() {
  EstimateRequest request;
  request.points = circle_points(33);
  request.epsilon = 3.0;
  request.k = 1;
  request.options.backend = EstimatorBackend::kCircuitSparse;
  request.options.mixed_state = MixedStateMode::kSampledBasis;
  request.options.precision_qubits = 2;
  request.options.shots = 4;
  request.options.seed = 7;
  return request;
}

/// Cumulative arrival offsets (ns) for \p total Poisson arrivals at rate
/// \p lambda_rps.  Fixed seed: the same offered schedule every run.
std::vector<std::uint64_t> poisson_offsets_ns(std::size_t total,
                                              double lambda_rps) {
  Rng rng(2023);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(total);
  double t_seconds = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    t_seconds += -std::log(1.0 - rng.uniform()) / lambda_rps;
    offsets.push_back(static_cast<std::uint64_t>(t_seconds * 1e9));
  }
  return offsets;
}

struct ExperimentResult {
  telemetry::HistogramSnapshot latency;  ///< client-observed, nanoseconds
  double wall_seconds = 0.0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  /// Error-taxonomy code name → occurrences (empty on a clean run).
  std::map<std::string, std::size_t> errors_by_code;
};

/// One open-loop experiment: \p total arrivals at \p lambda_rps offered.
ExperimentResult run_experiment(double lambda_rps, std::size_t total) {
  ServerOptions options;
  options.cache.budget_bytes = std::size_t{64} << 20;
  BettiServer server(options);
  LoopbackTransport transport;
  server.start(transport);

  // Warm every cache level on a side connection so the timed arrivals all
  // measure the steady-state serving path.
  {
    ServeClient warm(transport.connect());
    warm.estimate(load_request());
  }

  const std::vector<std::uint64_t> offsets = poisson_offsets_ns(total,
                                                                lambda_rps);
  std::shared_ptr<Connection> connection = transport.connect();
  std::vector<Clock::time_point> sent(total);
  telemetry::Histogram latency;

  const Clock::time_point start = Clock::now();
  std::thread arrivals([&] {
    const EstimateRequest base = load_request();
    for (std::size_t i = 0; i < total; ++i) {
      std::this_thread::sleep_until(start +
                                    std::chrono::nanoseconds(offsets[i]));
      EstimateRequest request = base;
      request.id = "L" + std::to_string(i);
      sent[i] = Clock::now();
      connection->write_line(format_request(request));
    }
  });

  std::size_t errors = 0;
  std::map<std::string, std::size_t> errors_by_code;
  for (std::size_t received = 0; received < total; ++received) {
    const std::optional<std::string> line = connection->read_line();
    if (!line.has_value()) break;  // connection died: count the shortfall
    const Clock::time_point completed_at = Clock::now();
    const EstimateResponse response = parse_response(*line);
    if (!response.ok) {
      ++errors;
      ++errors_by_code[serve_error_name(response.code)];
    }
    const std::size_t index =
        static_cast<std::size_t>(std::stoul(response.id.substr(1)));
    latency.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(completed_at -
                                                             sent[index])
            .count()));
  }
  const Clock::time_point end = Clock::now();
  arrivals.join();

  ExperimentResult result;
  result.latency = latency.snapshot();
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.completed = result.latency.count;
  result.errors = errors;
  result.errors_by_code = std::move(errors_by_code);

  server.stop();
  return result;
}

/// Arg(0): offered load in requests/second.  Each iteration is one full
/// experiment; latency quantiles accumulate across iterations (the bucket
/// layout makes the merge exact).
void BM_OpenLoopPoisson(benchmark::State& state) {
  const double lambda_rps = static_cast<double>(state.range(0));
  const std::size_t total = 48;
  telemetry::HistogramSnapshot merged;
  double wall_seconds = 0.0;
  std::size_t completed = 0, errors = 0;
  std::map<std::string, std::size_t> errors_by_code;
  for (auto _ : state) {
    const ExperimentResult result = run_experiment(lambda_rps, total);
    merged.merge(result.latency);
    wall_seconds += result.wall_seconds;
    completed += result.completed;
    errors += result.errors;
    for (const auto& [code, count] : result.errors_by_code)
      errors_by_code[code] += count;
  }
  state.counters["offered_rps"] = lambda_rps;
  state.counters["est_per_sec"] =
      wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds : 0.0;
  state.counters["p50_ms"] = merged.quantile(0.50) / 1e6;
  state.counters["p95_ms"] = merged.quantile(0.95) / 1e6;
  state.counters["p99_ms"] = merged.quantile(0.99) / 1e6;
  state.counters["errors"] = static_cast<double>(errors);
  for (const auto& [code, count] : errors_by_code)
    state.counters["err_" + code] = static_cast<double>(count);
}
BENCHMARK(BM_OpenLoopPoisson)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);

/// Flood a one-worker, bounded-queue, batching-off server from several
/// closed-loop retrying clients.  Shed requests come back as retryable
/// `overloaded` errors with a retry-after hint; clients back off and
/// resubmit until everything lands.  Counters prove the shedding actually
/// happened (shed > 0 on any meaningful run), that retries drove the
/// recovery, and that no accepted result deviated from the expected bits.
void BM_OverloadShedding(benchmark::State& state) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 16;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  std::size_t failures = 0;
  std::size_t mismatches = 0;
  for (auto _ : state) {
    ServerOptions options;
    options.cache.budget_bytes = std::size_t{64} << 20;
    options.workers = 1;
    options.batching = false;  // no coalescing: every request occupies the
                               // single worker, keeping the queue saturated
    options.max_queue = 2;
    options.shed_retry_after_ms = 1;
    BettiServer server(options);
    LoopbackTransport transport;
    // The registry is process-wide: count this server's sheds as a delta.
    const std::uint64_t shed_before =
        server.metrics().counters.at("serve.errors.overloaded");
    server.start(transport);

    // Reference bits (also warms the caches so the flood measures
    // admission, not compilation).
    std::uint64_t expected_zero_counts = 0;
    {
      ServeClient warm(transport.connect());
      expected_zero_counts = warm.estimate(load_request()).estimate.zero_counts;
    }

    std::atomic<std::size_t> thread_failures{0};
    std::atomic<std::size_t> thread_mismatches{0};
    std::atomic<std::uint64_t> thread_retries{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RetryPolicy policy;
        policy.max_attempts = 64;
        policy.initial_backoff_ms = 1;
        policy.max_backoff_ms = 16;
        policy.jitter_seed = static_cast<std::uint64_t>(40 + c);
        ServeClient client([&transport] { return transport.connect(); },
                           policy);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          try {
            const EstimateResponse response = client.estimate(load_request());
            if (!response.ok) {
              thread_failures.fetch_add(1);
            } else if (response.estimate.zero_counts != expected_zero_counts) {
              thread_mismatches.fetch_add(1);
            }
          } catch (const std::exception&) {
            thread_failures.fetch_add(1);
          }
        }
        thread_retries.fetch_add(client.retries());
      });
    }
    for (std::thread& client : clients) client.join();
    shed += server.metrics().counters.at("serve.errors.overloaded") -
            shed_before;
    retries += thread_retries.load();
    failures += thread_failures.load();
    mismatches += thread_mismatches.load();
    server.stop();
  }
  state.counters["shed"] = static_cast<double>(shed);
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["failures"] = static_cast<double>(failures);
  state.counters["mismatches"] = static_cast<double>(mismatches);
}
BENCHMARK(BM_OverloadShedding)->Unit(benchmark::kMillisecond);

}  // namespace
