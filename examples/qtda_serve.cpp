/// \file qtda_serve.cpp
/// \brief The qtda_serve daemon: long-running Betti estimation service.
///
/// Default mode binds a Unix stream socket (or a TCP port with `--tcp`)
/// and serves the line protocol until a client sends `shutdown` (or the
/// process receives SIGINT/SIGTERM, which the parked main thread
/// translates into a graceful stop):
///
///   qtda_serve --socket /tmp/qtda.sock --cache-mb 256
///   qtda_serve --tcp 7421 --workers 2
///
/// `--smoke` instead drives an in-process loopback end to end — cold
/// request, warm repeat (asserting the plan cache hit and bit-identical
/// results), a concurrent burst exercising the batcher, a `stats` line
/// that must agree field by field with the `metrics` scrape after it, and a
/// clean shutdown — then repeats a round trip over a real TCP socket,
/// exiting non-zero on any violation.  CI runs this as the serve-smoke
/// step.
///
/// Setting `QTDA_CHAOS=<seed>:<spec>` (see serve/chaos.hpp) wraps the
/// transport in deterministic fault injection, in both daemon and smoke
/// modes.  The chaos smoke keeps the bit-identity assertions — results
/// surviving retries must equal fault-free ones — but drops the
/// cache-state and metrics assertions, which retries legitimately perturb.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using namespace qtda;

BettiServer* g_signal_server = nullptr;

void handle_signal(int) {
  if (g_signal_server != nullptr) g_signal_server->request_stop();
}

std::vector<std::vector<double>> circle_points(std::size_t n, double radius) {
  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n);
    points.push_back({radius * std::cos(angle), radius * std::sin(angle)});
  }
  return points;
}

EstimateRequest smoke_request(std::uint64_t seed) {
  EstimateRequest request;
  request.points = circle_points(8, 1.0);
  request.epsilon = 1.0;
  request.k = 1;
  request.options.backend = EstimatorBackend::kCircuitSparse;
  request.options.precision_qubits = 3;
  request.options.shots = 512;
  request.options.seed = seed;
  return request;
}

int fail(const char* what) {
  std::fprintf(stderr, "serve smoke FAILED: %s\n", what);
  return 1;
}

/// Retry policy for smoke clients: single-shot when fault-free, resilient
/// under chaos (the injected faults are transient by construction).
RetryPolicy smoke_policy(bool chaos, std::uint64_t jitter_seed) {
  RetryPolicy policy;
  if (chaos) {
    policy.max_attempts = 12;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 32;
    policy.request_timeout_ms = 2000;
  }
  policy.jitter_seed = jitter_seed;
  return policy;
}

void print_chaos_stats(const char* where, const FaultInjectingTransport& t) {
  const ChaosStats stats = t.stats();
  std::printf(
      "chaos[%s]: injected=%llu (drop_r=%llu delay_r=%llu corrupt_r=%llu "
      "drop_w=%llu torn_w=%llu fail_acc=%llu)\n",
      where, static_cast<unsigned long long>(stats.total()),
      static_cast<unsigned long long>(stats.dropped_reads),
      static_cast<unsigned long long>(stats.delayed_reads),
      static_cast<unsigned long long>(stats.corrupted_reads),
      static_cast<unsigned long long>(stats.dropped_writes),
      static_cast<unsigned long long>(stats.torn_writes),
      static_cast<unsigned long long>(stats.failed_accepts));
}

/// Whether a `stats` line names exactly the counters and gauges of \p metrics,
/// each with the same value.
bool stats_agree(const std::string& stats, const MetricsReport& metrics) {
  std::istringstream fields(stats);
  std::string field;
  if (!(fields >> field) || field != "stats") return false;
  std::size_t matched = 0;
  while (fields >> field) {
    const std::size_t equals = field.find('=');
    if (equals == std::string::npos) return false;
    const std::string name = field.substr(0, equals);
    const std::string value = field.substr(equals + 1);
    const auto counter = metrics.counters.find(name);
    const auto gauge = metrics.gauges.find(name);
    if (counter != metrics.counters.end()) {
      if (value != std::to_string(counter->second)) return false;
    } else if (gauge == metrics.gauges.end() ||
               value != std::to_string(gauge->second)) {
      return false;
    }
    ++matched;
  }
  return matched == metrics.counters.size() + metrics.gauges.size();
}

/// In-process end-to-end exercise over the loopback transport.
int run_loopback_smoke(const std::optional<FaultPlan>& chaos_plan) {
  ServerOptions options;
  options.cache.budget_bytes = std::size_t{64} << 20;
  BettiServer server(options);
  LoopbackTransport loopback;
  std::unique_ptr<FaultInjectingTransport> chaotic;
  Transport* transport = &loopback;
  if (chaos_plan.has_value()) {
    chaotic = std::make_unique<FaultInjectingTransport>(loopback, *chaos_plan);
    transport = chaotic.get();
  }
  const bool chaos = chaos_plan.has_value();
  server.start(*transport);

  // Cold request: every cache level misses (fault-free runs only — a
  // chaos retry legitimately warms the caches before succeeding).
  ServeClient client([&loopback] { return loopback.connect(); },
                     smoke_policy(chaos, /*jitter_seed=*/11));
  const EstimateResponse cold = client.estimate(smoke_request(7));
  if (!cold.ok) return fail(cold.error.c_str());
  if (!chaos && (cold.plan_hit || cold.complex_hit))
    return fail("cold request hit");

  // Warm repeat: payload bit-identical to the cold run — under chaos too,
  // which is the retry-determinism guarantee.
  const EstimateResponse warm = client.estimate(smoke_request(7));
  if (!warm.ok) return fail(warm.error.c_str());
  if (!chaos && (!warm.plan_hit || !warm.complex_hit || !warm.laplacian_hit))
    return fail("warm request missed a cache level");
  if (warm.estimate.zero_counts != cold.estimate.zero_counts ||
      warm.estimate.estimated_betti != cold.estimate.estimated_betti)
    return fail("warm result deviated from cold result");

  // Concurrent burst from several connections: exercises admission,
  // batching, and the completion queue (and, under chaos, concurrent
  // retry/reconnect paths).
  std::atomic<int> burst_failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&loopback, &burst_failures, chaos, d] {
      ServeClient burst_client(
          [&loopback] { return loopback.connect(); },
          smoke_policy(chaos, /*jitter_seed=*/static_cast<std::uint64_t>(
                                  20 + d)));
      for (int i = 0; i < 8; ++i) {
        const auto seed = static_cast<std::uint64_t>(100 + d * 8 + i);
        try {
          const EstimateResponse response =
              burst_client.estimate(smoke_request(seed));
          if (!response.ok) burst_failures.fetch_add(1);
        } catch (const std::exception&) {
          burst_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  if (burst_failures.load() != 0) return fail("burst request errored");

  if (!chaos) {
    const std::string stats = client.stats();
    std::printf("%s\n", stats.c_str());

    // Metrics scrape: the burst above must have left non-zero request
    // counters, cache traffic on every level, and populated latency
    // histograms — this is the observability contract CI asserts.  The
    // server is quiescent, so the stats line above must agree with it.
    const MetricsReport metrics = client.metrics();
    if (!stats_agree(stats, metrics))
      return fail("stats line disagrees with the metrics scrape");
    if (metrics.counters.at("serve.admitted") < 34)
      return fail("metrics verb lost admitted requests");
    if (metrics.counters.at("cache.plan.hits") == 0 ||
        metrics.counters.at("cache.plan.misses") == 0)
      return fail("metrics verb shows no plan-cache traffic");
    const auto request_latency = metrics.histograms.find("serve.request_ns");
    if (request_latency == metrics.histograms.end() ||
        request_latency->second.count < 34)
      return fail("request latency histogram incomplete");
    const auto queue_wait = metrics.histograms.find("serve.queue_wait_ns");
    if (queue_wait == metrics.histograms.end() ||
        queue_wait->second.count == 0)
      return fail("queue wait histogram empty");
    const auto evolve = metrics.histograms.find("span.evolve");
    if (evolve == metrics.histograms.end() || evolve->second.count == 0)
      return fail("evolve span histogram empty");
    const std::string prometheus = client.metrics_prometheus();
    if (prometheus.find("qtda_serve_admitted ") == std::string::npos ||
        prometheus.find("qtda_serve_request_ns_bucket") == std::string::npos ||
        prometheus.find("# EOF") == std::string::npos)
      return fail("prometheus exposition incomplete");
    client.shutdown();
  }
  server.stop();
  if (chaotic != nullptr) print_chaos_stats("loopback", *chaotic);
  return 0;
}

/// Round trip over a real TCP socket (ephemeral port on 127.0.0.1),
/// asserting the transport preserves bit-identity.
int run_tcp_smoke(const std::optional<FaultPlan>& chaos_plan) {
  ServerOptions options;
  options.cache.budget_bytes = std::size_t{64} << 20;
  BettiServer server(options);
  TcpTransport tcp(0);
  std::unique_ptr<FaultInjectingTransport> chaotic;
  Transport* transport = &tcp;
  if (chaos_plan.has_value()) {
    chaotic = std::make_unique<FaultInjectingTransport>(tcp, *chaos_plan);
    transport = chaotic.get();
  }
  const bool chaos = chaos_plan.has_value();
  server.start(*transport);

  ServeClient client([&tcp] { return connect_tcp(tcp.host(), tcp.port()); },
                     smoke_policy(chaos, /*jitter_seed=*/31));
  const EstimateResponse first = client.estimate(smoke_request(7));
  if (!first.ok) return fail(first.error.c_str());
  const EstimateResponse second = client.estimate(smoke_request(7));
  if (!second.ok) return fail(second.error.c_str());
  if (first.estimate.zero_counts != second.estimate.zero_counts ||
      first.estimate.estimated_betti != second.estimate.estimated_betti)
    return fail("TCP results deviated between repeats");
  if (!chaos) client.shutdown();
  server.stop();
  if (chaotic != nullptr) print_chaos_stats("tcp", *chaotic);
  return 0;
}

int run_smoke() {
  std::optional<FaultPlan> chaos_plan;
  try {
    chaos_plan = fault_plan_from_env();
  } catch (const std::exception& error) {
    return fail(error.what());
  }
  if (chaos_plan.has_value())
    std::printf("serve smoke under chaos spec %s\n",
                chaos_plan->spec().c_str());
  const int loopback_result = run_loopback_smoke(chaos_plan);
  if (loopback_result != 0) return loopback_result;
  const int tcp_result = run_tcp_smoke(chaos_plan);
  if (tcp_result != 0) return tcp_result;
  std::printf("serve smoke OK: cold=miss warm=hit burst=32 tcp=ok%s\n",
              chaos_plan.has_value() ? " (chaos survived)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  // A peer that vanishes mid-write must surface as a failed send() on that
  // connection, not kill the whole daemon with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    // Fail fast on a typo'd QTDA_LOG_LEVEL / QTDA_TELEMETRY before binding
    // anything (QTDA_TRACE also arms the exit-time Chrome-trace writer).
    apply_log_level_from_env();
    telemetry::enabled();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  if (args.get_bool("smoke")) return run_smoke();

  const std::string path = args.get_string("socket", "/tmp/qtda_serve.sock");
  const int tcp_port = static_cast<int>(args.get_int("tcp", -1));
  ServerOptions options;
  options.cache.budget_bytes =
      static_cast<std::size_t>(args.get_int("cache-mb", 256)) << 20;
  options.cache.shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));
  options.workers = static_cast<std::size_t>(args.get_int("workers", 1));
  options.batching = !args.get_bool("no-batching");
  options.max_queue = static_cast<std::size_t>(args.get_int("max-queue", 0));

  try {
    BettiServer server(options);
    std::unique_ptr<Transport> base;
    std::string listening_on;
    if (tcp_port >= 0) {
      auto tcp = std::make_unique<TcpTransport>(
          static_cast<std::uint16_t>(tcp_port));
      listening_on = tcp->host() + ":" + std::to_string(tcp->port());
      base = std::move(tcp);
    } else {
      base = std::make_unique<UnixSocketTransport>(path);
      listening_on = path;
    }
    std::unique_ptr<FaultInjectingTransport> chaotic;
    Transport* transport = base.get();
    if (const std::optional<FaultPlan> plan = fault_plan_from_env()) {
      chaotic = std::make_unique<FaultInjectingTransport>(*base, *plan);
      transport = chaotic.get();
      std::printf("chaos armed: %s\n", plan->spec().c_str());
    }
    g_signal_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    server.start(*transport);
    std::printf("qtda_serve listening on %s (cache %lld MiB, %s)\n",
                listening_on.c_str(),
                static_cast<long long>(args.get_int("cache-mb", 256)),
                options.batching ? "batching on" : "batching off");
    std::fflush(stdout);
    server.wait();
    server.stop();
    g_signal_server = nullptr;
    if (chaotic != nullptr) print_chaos_stats("daemon", *chaotic);
  } catch (const std::exception& error) {
    QTDA_ERROR << "qtda_serve failed: " << error.what();
    return 1;
  }
  std::printf("qtda_serve stopped\n");
  return 0;
}
