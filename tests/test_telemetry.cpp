/// \file test_telemetry.cpp
/// \brief Telemetry spine: histogram bucketing and deterministic merges,
/// counter concurrency, span-tree tracing, metrics exposition round-trips
/// (JSON and the serve verb), and the invariant that enabling telemetry
/// does not perturb the bit-identity fingerprints.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bit_identity_scenarios.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace qtda {
namespace {

using telemetry::Histogram;
using telemetry::HistogramSnapshot;

/// Restores the disabled default on scope exit so tests cannot leak an
/// enabled registry into each other.
struct TelemetryGuard {
  ~TelemetryGuard() {
    telemetry::set_enabled(false);
    telemetry::registry().reset_values();
  }
};

TEST(TelemetryHistogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower_bound(v), v);
    EXPECT_EQ(Histogram::bucket_upper_bound(v), v);
  }
}

TEST(TelemetryHistogram, BucketBoundsRoundTrip) {
  // Every bucket's own bounds must map back to it, and consecutive buckets
  // must tile the integers without gaps or overlap.
  for (std::size_t index = 0; index + 1 < Histogram::kNumBuckets; ++index) {
    const std::uint64_t lower = Histogram::bucket_lower_bound(index);
    const std::uint64_t upper = Histogram::bucket_upper_bound(index);
    ASSERT_LE(lower, upper) << "bucket " << index;
    EXPECT_EQ(Histogram::bucket_index(lower), index);
    EXPECT_EQ(Histogram::bucket_index(upper), index);
    EXPECT_EQ(Histogram::bucket_lower_bound(index + 1), upper + 1)
        << "gap after bucket " << index;
  }
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX),
            Histogram::kNumBuckets - 1);
}

TEST(TelemetryHistogram, RelativeErrorBounded) {
  // Octave splitting into 8 sub-buckets caps the bucket width at 12.5% of
  // its lower bound — the quantile resolution contract.
  for (std::uint64_t v : {9ull, 100ull, 4096ull, 123456789ull,
                          (1ull << 40) + 17}) {
    const std::size_t index = Histogram::bucket_index(v);
    const double lower =
        static_cast<double>(Histogram::bucket_lower_bound(index));
    const double upper =
        static_cast<double>(Histogram::bucket_upper_bound(index));
    EXPECT_LE((upper - lower + 1.0) / lower, 0.125 + 1e-12) << v;
  }
}

TEST(TelemetryHistogram, MergeEqualsConcatenation) {
  const std::vector<std::uint64_t> samples = {0,   1,    7,     8,     9,
                                              63,  64,   100,   1000,  4095,
                                              4096, 65537, 1 << 20, 123456789};
  Histogram left, right, all;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 2 == 0 ? left : right).record(samples[i]);
    all.record(samples[i]);
  }
  HistogramSnapshot merged = left.snapshot();
  merged.merge(right.snapshot());
  const HistogramSnapshot expected = all.snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.buckets, expected.buckets);
}

TEST(TelemetryHistogram, QuantilesBracketTheData) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  // Bucket resolution is 12.5%: quantiles land within that of the exact
  // order statistic.
  EXPECT_NEAR(snapshot.quantile(0.5), 500.0, 0.125 * 500.0);
  EXPECT_NEAR(snapshot.quantile(0.99), 990.0, 0.125 * 990.0);
  EXPECT_GE(snapshot.quantile(1.0), snapshot.quantile(0.5));
  EXPECT_NEAR(snapshot.mean(), 500.5, 0.5);
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(TelemetryCounter, ConcurrentHammerLosesNothing) {
  telemetry::Counter& counter =
      telemetry::registry().counter("test.hammer");
  counter.reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 10000;
  parallel_for(
      0, kTasks,
      [&](std::size_t) {
        for (std::size_t i = 0; i < kAddsPerTask; ++i) counter.add();
      },
      /*min_parallel_size=*/1);
  EXPECT_EQ(counter.value(), kTasks * kAddsPerTask);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(TelemetrySpan, DisabledSpansRecordNothing) {
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  telemetry::Histogram& h =
      telemetry::registry().histogram("span.zero_cost");
  const std::uint64_t before = h.snapshot().count;
  { QTDA_SPAN("zero_cost"); }
  EXPECT_EQ(h.snapshot().count, before);
  telemetry::set_enabled(true);
  { QTDA_SPAN("zero_cost"); }
  EXPECT_EQ(h.snapshot().count, before + 1);
}

TEST(TelemetrySpan, TraceCapturesNesting) {
  TelemetryGuard guard;
  telemetry::set_enabled(true);
  telemetry::start_trace();
  {
    QTDA_SPAN("outer");
    {
      QTDA_SPAN("inner");
    }
  }
  const std::vector<telemetry::TraceEvent> events = telemetry::stop_trace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the outer span opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].duration_ns, events[0].duration_ns);

  const std::string json = telemetry::chrome_trace_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// Regression test for a data race: Span destructors append to their
// thread-local ThreadTrace::events while a concurrent stop_trace() on
// another thread drains those same vectors.  Before the per-trace lock the
// push and the drain touched one std::vector unsynchronized (TSan reported
// the pair; a realloc mid-drain could tear the collected events).  The
// assertions are deliberately weak — spans racing a stop may be dropped —
// the test's job is giving TSan the interleaving.
TEST(TelemetrySpan, ConcurrentStopTraceIsRaceFree) {
  TelemetryGuard guard;
  telemetry::set_enabled(true);
  telemetry::start_trace();

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 4; ++t) {
    spanners.emplace_back([&stop, &started] {
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        {
          QTDA_SPAN("race.outer");
          QTDA_SPAN("race.inner");
        }
        if (first) {
          first = false;
          started.fetch_add(1);
        }
      }
    });
  }
  // Every spanner has recorded at least one span before the stop/start
  // rounds begin — without this the main loop can finish before the
  // threads are even scheduled and collect nothing.
  while (started.load() < 4) std::this_thread::yield();

  std::size_t collected = 0;
  for (int round = 0; round < 50; ++round) {
    for (const telemetry::TraceEvent& event : telemetry::stop_trace()) {
      EXPECT_TRUE(std::string(event.name).rfind("race.", 0) == 0);
      ++collected;
    }
    telemetry::start_trace();
  }

  stop.store(true);
  for (std::thread& spanner : spanners) spanner.join();
  const std::vector<telemetry::TraceEvent> rest = telemetry::stop_trace();
  collected += rest.size();
  EXPECT_GT(collected, 0u);
}

TEST(TelemetryMetrics, JsonRoundTrips) {
  MetricsReport report;
  report.counters["serve.admitted"] = 42;
  report.counters["compiler.gates_before"] = 1234567890123ull;
  report.gauges["serve.queue_depth"] = -3;
  HistogramSnapshot h;
  Histogram raw;
  raw.record(5);
  raw.record(100);
  raw.record(100000);
  h = raw.snapshot();
  report.histograms["serve.request_ns"] = h;

  const std::string json = render_metrics_json(report);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  const MetricsReport parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.counters, report.counters);
  EXPECT_EQ(parsed.gauges, report.gauges);
  ASSERT_EQ(parsed.histograms.size(), 1u);
  const HistogramSnapshot& round = parsed.histograms.at("serve.request_ns");
  EXPECT_EQ(round.count, h.count);
  EXPECT_EQ(round.sum, h.sum);
  EXPECT_EQ(round.buckets, h.buckets);

  EXPECT_THROW(parse_metrics_json("definitely not json"), Error);
}

TEST(TelemetryMetrics, PrometheusExposition) {
  MetricsReport report;
  report.counters["serve.admitted"] = 7;
  Histogram raw;
  raw.record(100);
  report.histograms["serve.request_ns"] = raw.snapshot();
  const std::string text = render_prometheus(report);
  EXPECT_NE(text.find("qtda_serve_admitted 7"), std::string::npos);
  EXPECT_NE(text.find("qtda_serve_request_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
}

TEST(TelemetryMetrics, ServeVerbRoundTrip) {
  TelemetryGuard guard;
  ServerOptions options;
  options.cache.budget_bytes = std::size_t{32} << 20;
  BettiServer server(options);  // start() enables collection
  LoopbackTransport transport;
  server.start(transport);
  ServeClient client(transport.connect());

  EstimateRequest request;
  for (int i = 0; i < 8; ++i) {
    const double angle = 6.283185307179586 * i / 8.0;
    request.points.push_back({std::cos(angle), std::sin(angle)});
  }
  request.epsilon = 1.0;
  request.k = 1;
  request.options.precision_qubits = 2;
  request.options.shots = 64;
  ASSERT_TRUE(client.estimate(request).ok);

  const MetricsReport metrics = client.metrics();
  EXPECT_GE(metrics.counters.at("serve.admitted"), 1u);
  EXPECT_GE(metrics.counters.at("serve.completed"), 1u);
  EXPECT_EQ(metrics.counters.at("cache.plan.misses"), 1u);
  ASSERT_TRUE(metrics.histograms.count("serve.request_ns"));
  EXPECT_GE(metrics.histograms.at("serve.request_ns").count, 1u);
  ASSERT_TRUE(metrics.histograms.count("span.evolve"));
  EXPECT_GE(metrics.histograms.at("span.evolve").count, 1u);

  const std::string prometheus = client.metrics_prometheus();
  EXPECT_NE(prometheus.find("qtda_serve_admitted"), std::string::npos);
  EXPECT_NE(prometheus.find("# EOF\n"), std::string::npos);

  // The scrape must not have corrupted request matching: a request after
  // the multi-line exposition still round-trips.
  EXPECT_TRUE(client.estimate(request).ok);
  client.shutdown();
  server.stop();
}

TEST(TelemetryInvariance, FingerprintsUnchangedWhenEnabled) {
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  const auto baseline = testing::bit_identity_fingerprints();
  telemetry::set_enabled(true);
  const auto instrumented = testing::bit_identity_fingerprints();
  ASSERT_EQ(baseline.size(), instrumented.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].name, instrumented[i].name);
    EXPECT_EQ(baseline[i].hash, instrumented[i].hash)
        << "telemetry perturbed scenario " << baseline[i].name;
  }
}

TEST(Logging, LevelNamesParse) {
  EXPECT_EQ(log_level_from_name("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_name("info"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_name("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_name("error"), LogLevel::kError);
  EXPECT_THROW(log_level_from_name("loud"), Error);
  EXPECT_THROW(log_level_from_name(""), Error);
}

}  // namespace
}  // namespace qtda
