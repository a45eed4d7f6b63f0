// Fault-tolerance tests: deterministic chaos injection on the serving
// transports, client retry/backoff convergence (retried results must be
// bit-identical to fault-free ones), admission-control load shedding,
// request limits, execution-deadline cancellation, and the error taxonomy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "metrics_delta.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/errors.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace qtda {
namespace {

using testing::counter_delta;

std::vector<std::vector<double>> circle_points(std::size_t n) {
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n);
    points.push_back({std::cos(angle), std::sin(angle)});
  }
  return points;
}

/// Small, fast request — chaos tests run many round trips.
EstimateRequest chaos_request(std::uint64_t seed) {
  EstimateRequest request;
  request.points = circle_points(6);
  request.epsilon = 1.2;
  request.k = 1;
  request.options.backend = EstimatorBackend::kCircuitSparse;
  request.options.precision_qubits = 2;
  request.options.shots = 64;
  request.options.seed = seed;
  return request;
}

ServerOptions small_server_options() {
  ServerOptions options;
  options.cache.budget_bytes = std::size_t{32} << 20;
  return options;
}

/// Fault-free reference results for seeds 100..100+rounds — what every
/// chaos run must converge to, bit for bit.
std::vector<BettiEstimate> reference_estimates(int rounds) {
  BettiServer reference(small_server_options());
  std::vector<BettiEstimate> expected;
  expected.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const EstimateResponse response =
        reference.handle(chaos_request(100 + static_cast<std::uint64_t>(r)));
    EXPECT_TRUE(response.ok) << response.error;
    expected.push_back(response.estimate);
  }
  return expected;
}

RetryPolicy resilient_policy(std::uint64_t jitter_seed,
                             std::uint64_t timeout_ms = 0) {
  RetryPolicy policy;
  policy.max_attempts = 16;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.request_timeout_ms = timeout_ms;
  policy.jitter_seed = jitter_seed;
  return policy;
}

/// Runs `rounds` sequential estimates over a chaos-wrapped loopback and
/// asserts every one converges to the fault-free bits.  Returns the
/// injection counters so callers can assert their fault class actually
/// fired (a chaos test that injects nothing is vacuous).
ChaosStats converge_under_chaos(const FaultPlan& plan, RetryPolicy policy,
                                int rounds = 10) {
  const std::vector<BettiEstimate> expected = reference_estimates(rounds);

  BettiServer server(small_server_options());
  LoopbackTransport loopback;
  FaultInjectingTransport chaotic(loopback, plan);
  server.start(chaotic);
  {
    ServeClient client([&loopback] { return loopback.connect(); }, policy);
    for (int r = 0; r < rounds; ++r) {
      const EstimateResponse response =
          client.estimate(chaos_request(100 + static_cast<std::uint64_t>(r)));
      EXPECT_TRUE(response.ok) << response.error;
      const std::size_t i = static_cast<std::size_t>(r);
      EXPECT_EQ(response.estimate.zero_counts, expected[i].zero_counts);
      EXPECT_EQ(response.estimate.estimated_betti,
                expected[i].estimated_betti);
      EXPECT_EQ(response.estimate.zero_probability,
                expected[i].zero_probability);
    }
  }
  server.stop();
  return chaotic.stats();
}

// ------------------------------------------------------------- fault plans

TEST(FaultPlan, ParsesAndRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "42:drop_read=0.25,torn_write=0.5,delay_read=0.125,delay_ms=3,"
      "drop_write@7,fail_accept@0");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.drop_read, 0.25);
  EXPECT_DOUBLE_EQ(plan.torn_write, 0.5);
  EXPECT_DOUBLE_EQ(plan.delay_read, 0.125);
  EXPECT_DOUBLE_EQ(plan.corrupt_read, 0.0);
  EXPECT_EQ(plan.delay_ms, 3u);
  ASSERT_EQ(plan.script.size(), 2u);
  EXPECT_EQ(plan.script[0].kind, FaultKind::kDropWrite);
  EXPECT_EQ(plan.script[0].index, 7u);
  EXPECT_EQ(plan.script[1].kind, FaultKind::kFailAccept);
  EXPECT_EQ(plan.script[1].index, 0u);

  // spec() → parse() is the identity on every field.
  const FaultPlan reparsed = FaultPlan::parse(plan.spec());
  EXPECT_EQ(reparsed.spec(), plan.spec());
  EXPECT_EQ(reparsed.seed, plan.seed);
  EXPECT_EQ(reparsed.script.size(), plan.script.size());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("no-colon"), Error);
  EXPECT_THROW(FaultPlan::parse("x:drop_read=0.1"), Error);   // bad seed
  EXPECT_THROW(FaultPlan::parse("1:drop_read=1.5"), Error);   // p > 1
  EXPECT_THROW(FaultPlan::parse("1:unknown_fault=0.5"), Error);
  EXPECT_THROW(FaultPlan::parse("1:drop_read@abc"), Error);
  EXPECT_THROW(FaultPlan::parse("1:drop_read"), Error);
}

// ----------------------------------------------------------- error taxonomy

TEST(ErrorTaxonomy, NamesRoundTrip) {
  for (const ServeErrorCode code :
       {ServeErrorCode::kProtocol, ServeErrorCode::kLimit,
        ServeErrorCode::kOverloaded, ServeErrorCode::kDeadline,
        ServeErrorCode::kShutdown, ServeErrorCode::kInternal,
        ServeErrorCode::kUnavailable, ServeErrorCode::kTimeout}) {
    EXPECT_EQ(serve_error_from_name(serve_error_name(code)), code);
  }
  // Unknown names classify conservatively (internal, not retryable).
  EXPECT_EQ(serve_error_from_name("martian"), ServeErrorCode::kInternal);
}

TEST(ErrorTaxonomy, RetryabilityContract) {
  // Retryable: the request itself is fine, the moment was wrong.
  EXPECT_TRUE(serve_error_retryable(ServeErrorCode::kOverloaded));
  EXPECT_TRUE(serve_error_retryable(ServeErrorCode::kShutdown));
  EXPECT_TRUE(serve_error_retryable(ServeErrorCode::kUnavailable));
  EXPECT_TRUE(serve_error_retryable(ServeErrorCode::kTimeout));
  // Non-retryable: resending the identical request cannot succeed.
  EXPECT_FALSE(serve_error_retryable(ServeErrorCode::kProtocol));
  EXPECT_FALSE(serve_error_retryable(ServeErrorCode::kLimit));
  EXPECT_FALSE(serve_error_retryable(ServeErrorCode::kDeadline));
  EXPECT_FALSE(serve_error_retryable(ServeErrorCode::kInternal));
}

TEST(ErrorTaxonomy, TypedErrorCarriesCodeAndHint) {
  const ServeError error(ServeErrorCode::kOverloaded, "queue full", 7);
  EXPECT_EQ(error.code(), ServeErrorCode::kOverloaded);
  EXPECT_TRUE(error.retryable());
  EXPECT_EQ(error.retry_after_ms(), 7u);
  EXPECT_NE(std::string(error.what()).find("overloaded"), std::string::npos);
}

TEST(Protocol, ErrorResponseRoundTripsTaxonomyFields) {
  EstimateResponse response;
  response.id = "r9";
  response.ok = false;
  response.code = ServeErrorCode::kOverloaded;
  response.retryable = true;
  response.retry_after_ms = 12;
  response.error = "admission queue full — retry after backoff";
  const EstimateResponse parsed = parse_response(format_response(response));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.id, "r9");
  EXPECT_EQ(parsed.code, ServeErrorCode::kOverloaded);
  EXPECT_TRUE(parsed.retryable);
  EXPECT_EQ(parsed.retry_after_ms, 12u);
  EXPECT_EQ(parsed.error, response.error);
}

TEST(Protocol, OldStyleErrorLineDefaultsToInternal) {
  // Pre-taxonomy lines carry only id and msg: parse as non-retryable
  // internal so old peers fail safe.
  const EstimateResponse parsed = parse_response("error id=r3 msg=boom");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, ServeErrorCode::kInternal);
  EXPECT_FALSE(parsed.retryable);
  EXPECT_EQ(parsed.error, "boom");
}

// ------------------------------------------------------------ retry backoff

TEST(RetryBackoff, CappedExponentialWithJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 2;
  policy.max_backoff_ms = 16;
  policy.multiplier = 2.0;
  // jitter01 = 1 → full nominal backoff: 2, 4, 8, 16, 16 (capped).
  EXPECT_EQ(retry_backoff_ms(policy, 0, 1.0), 2u);
  EXPECT_EQ(retry_backoff_ms(policy, 1, 1.0), 4u);
  EXPECT_EQ(retry_backoff_ms(policy, 2, 1.0), 8u);
  EXPECT_EQ(retry_backoff_ms(policy, 3, 1.0), 16u);
  EXPECT_EQ(retry_backoff_ms(policy, 9, 1.0), 16u);
  // jitter01 = 0 → half the nominal value, never zeroing the schedule.
  EXPECT_EQ(retry_backoff_ms(policy, 0, 0.0), 1u);
  EXPECT_EQ(retry_backoff_ms(policy, 3, 0.0), 8u);
}

// ------------------------------------------------------ cancellation spine

TEST(Cancel, UnarmedCheckpointIsNoop) {
  EXPECT_FALSE(cancel::deadline_armed());
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, ExpiredDeadlineThrowsAndScopesNest) {
  const auto now = std::chrono::steady_clock::now();
  cancel::ScopedDeadline outer(now + std::chrono::hours(1));
  EXPECT_TRUE(cancel::deadline_armed());
  EXPECT_NO_THROW(cancel::checkpoint());
  {
    cancel::ScopedDeadline inner(now - std::chrono::milliseconds(1));
    EXPECT_THROW(cancel::checkpoint(), CancelledError);
  }
  // Inner scope gone: the outer (future) deadline is armed again.
  EXPECT_TRUE(cancel::deadline_armed());
  EXPECT_NO_THROW(cancel::checkpoint());
}

// --------------------------------------------- per-fault-class convergence

TEST(Chaos, ConvergesUnderDroppedReads) {
  FaultPlan plan = FaultPlan::parse("3:drop_read=0.2");
  const ChaosStats stats =
      converge_under_chaos(plan, resilient_policy(/*jitter_seed=*/51));
  EXPECT_GT(stats.dropped_reads, 0u);
}

TEST(Chaos, ConvergesUnderDroppedWrites) {
  FaultPlan plan = FaultPlan::parse("4:drop_write=0.2");
  const ChaosStats stats =
      converge_under_chaos(plan, resilient_policy(/*jitter_seed=*/52));
  EXPECT_GT(stats.dropped_writes, 0u);
}

TEST(Chaos, ConvergesUnderTornWrites) {
  FaultPlan plan = FaultPlan::parse("5:torn_write=0.2");
  const ChaosStats stats =
      converge_under_chaos(plan, resilient_policy(/*jitter_seed=*/53));
  EXPECT_GT(stats.torn_writes, 0u);
}

TEST(Chaos, ConvergesUnderCorruptedFrames) {
  // Corrupted requests are answered with an id-less protocol error, so the
  // client needs its per-attempt timeout to recover.
  FaultPlan plan = FaultPlan::parse("6:corrupt_read=0.2");
  const ChaosStats stats = converge_under_chaos(
      plan, resilient_policy(/*jitter_seed=*/54, /*timeout_ms=*/500));
  EXPECT_GT(stats.corrupted_reads, 0u);
}

TEST(Chaos, ConvergesUnderDelayedReads) {
  FaultPlan plan = FaultPlan::parse("7:delay_read=0.4,delay_ms=2");
  const ChaosStats stats =
      converge_under_chaos(plan, resilient_policy(/*jitter_seed=*/55));
  EXPECT_GT(stats.delayed_reads, 0u);
}

TEST(Chaos, ConvergesUnderFailedAccepts) {
  FaultPlan plan = FaultPlan::parse("8:fail_accept@0,fail_accept@2");
  const ChaosStats stats =
      converge_under_chaos(plan, resilient_policy(/*jitter_seed=*/56));
  EXPECT_GT(stats.failed_accepts, 0u);
}

TEST(Chaos, ScriptedFaultFiresExactlyOnceAcrossReconnects) {
  // "Drop the very first read" — the retry's read has global index > 0, so
  // the fault must not re-fire after the reconnect (a per-connection
  // counter would re-drop read 0 of every fresh connection, forever).
  const std::vector<BettiEstimate> expected = reference_estimates(1);
  BettiServer server(small_server_options());
  LoopbackTransport loopback;
  FaultInjectingTransport chaotic(loopback,
                                  FaultPlan::parse("9:drop_read@0"));
  server.start(chaotic);
  {
    ServeClient client([&loopback] { return loopback.connect(); },
                       resilient_policy(/*jitter_seed=*/57));
    const EstimateResponse response = client.estimate(chaos_request(100));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.estimate.zero_counts, expected[0].zero_counts);
    EXPECT_EQ(client.retries(), 1u);
    EXPECT_EQ(client.reconnects(), 1u);
  }
  server.stop();
  EXPECT_EQ(chaotic.stats().dropped_reads, 1u);
}

TEST(ChaosSoak, EnvOrDefaultMixedFaultsConverge) {
  // CI's chaos-soak step points QTDA_CHAOS at fixed seeds; locally the
  // fallback spec exercises every fault class at once.
  const char* raw = std::getenv("QTDA_CHAOS");
  const FaultPlan plan = FaultPlan::parse(
      (raw != nullptr && raw[0] != '\0')
          ? raw
          : "11:drop_read=0.08,drop_write=0.08,torn_write=0.08,"
            "corrupt_read=0.05,delay_read=0.1,delay_ms=1,fail_accept=0.1");
  const ChaosStats stats = converge_under_chaos(
      plan, resilient_policy(/*jitter_seed=*/58, /*timeout_ms=*/1000),
      /*rounds=*/12);
  EXPECT_GT(stats.total(), 0u);
}

// ------------------------------------------------- admission control / shed

TEST(Server, ShedsPastQueueBoundWithRetryableOverloaded) {
  ServerOptions options = small_server_options();
  options.workers = 1;
  options.batching = false;
  options.max_queue = 1;
  options.shed_retry_after_ms = 3;
  BettiServer server(options);
  const MetricsReport before = server.metrics();
  LoopbackTransport transport;
  server.start(transport);

  // Pipeline a burst far past the bound on a raw connection (no retries):
  // the worker serves what was admitted, the rest must come back shed.
  const int kBurst = 12;
  std::shared_ptr<Connection> connection = transport.connect();
  for (int i = 0; i < kBurst; ++i) {
    EstimateRequest request = chaos_request(100);
    request.id = "F" + std::to_string(i);
    ASSERT_TRUE(connection->write_line(format_request(request)));
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::optional<std::string> line = connection->read_line();
    ASSERT_TRUE(line.has_value());
    const EstimateResponse response = parse_response(*line);
    if (response.ok) {
      ++ok;
    } else {
      ASSERT_EQ(response.code, ServeErrorCode::kOverloaded) << response.error;
      EXPECT_TRUE(response.retryable);
      EXPECT_EQ(response.retry_after_ms, 3u);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(overloaded, 0);
  const MetricsReport after = server.metrics();
  EXPECT_EQ(counter_delta(before, after, "serve.errors.overloaded"),
            static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(counter_delta(before, after, "serve.admitted"),
            static_cast<std::uint64_t>(ok));

  // A retrying client against the same saturated server eventually lands
  // every request — shedding degrades into backoff, not failure.
  RetryPolicy policy = resilient_policy(/*jitter_seed=*/59);
  policy.max_attempts = 64;
  ServeClient retrying([&transport] { return transport.connect(); }, policy);
  const EstimateResponse settled = retrying.estimate(chaos_request(100));
  EXPECT_TRUE(settled.ok) << settled.error;
  server.stop();
}

// ------------------------------------------------------------ request limits

TEST(Server, RejectsRequestsPastLimits) {
  ServerOptions options = small_server_options();
  options.limits.max_points = 4;
  options.limits.max_precision_qubits = 3;
  options.limits.max_shots = 1000;
  BettiServer server(options);
  LoopbackTransport transport;
  server.start(transport);
  ServeClient client(transport.connect());

  const auto expect_limit = [&client](EstimateRequest request) {
    try {
      client.estimate(std::move(request));
      FAIL() << "expected a limit rejection";
    } catch (const ServeError& error) {
      EXPECT_EQ(error.code(), ServeErrorCode::kLimit) << error.what();
      EXPECT_FALSE(error.retryable());
    }
  };
  expect_limit(chaos_request(100));  // 6 points > max_points=4

  EstimateRequest too_precise = chaos_request(100);
  too_precise.points = circle_points(3);
  too_precise.options.precision_qubits = 5;
  expect_limit(std::move(too_precise));

  EstimateRequest too_many_shots = chaos_request(100);
  too_many_shots.points = circle_points(3);
  too_many_shots.options.shots = 100000;
  expect_limit(std::move(too_many_shots));

  // In-bounds request on the same connection still serves fine.
  EstimateRequest fits = chaos_request(100);
  fits.points = circle_points(3);
  const EstimateResponse response = client.estimate(std::move(fits));
  EXPECT_TRUE(response.ok) << response.error;
  server.stop();
}

TEST(Server, RejectsOversizedLinesBeforeParsing) {
  ServerOptions options = small_server_options();
  options.limits.max_line_bytes = 128;
  BettiServer server(options);
  LoopbackTransport transport;
  server.start(transport);
  std::shared_ptr<Connection> connection = transport.connect();

  EstimateRequest request = chaos_request(100);
  request.id = "big";
  const std::string line = format_request(request);
  ASSERT_GT(line.size(), options.limits.max_line_bytes);
  ASSERT_TRUE(connection->write_line(line));
  const std::optional<std::string> reply = connection->read_line();
  ASSERT_TRUE(reply.has_value());
  const EstimateResponse response = parse_response(*reply);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "big");  // best-effort id from the intact frame
  EXPECT_EQ(response.code, ServeErrorCode::kLimit);
  EXPECT_FALSE(response.retryable);
  server.stop();
}

// ------------------------------------------------------- execution deadlines

TEST(Server, CancelsExecutionPastDeadline) {
  BettiServer server(small_server_options());
  const MetricsReport before = server.metrics();
  LoopbackTransport transport;
  server.start(transport);
  ServeClient client(transport.connect());

  // Heavy enough that execution alone far exceeds the 1 ms budget — a
  // many-step Trotter plan walks tens of thousands of ops through the
  // executor's per-op checkpoints, which must cancel it instead of
  // running to completion (pre-PR deadlines only bounded queue time).
  EstimateRequest heavy = chaos_request(100);
  heavy.points = circle_points(8);
  heavy.epsilon = 3.0;
  heavy.options.backend = EstimatorBackend::kCircuitTrotter;
  heavy.options.trotter.steps = 128;
  heavy.options.precision_qubits = 4;
  heavy.deadline_ms = 1;
  try {
    client.estimate(std::move(heavy));
    FAIL() << "expected a deadline cancellation";
  } catch (const ServeError& error) {
    EXPECT_EQ(error.code(), ServeErrorCode::kDeadline) << error.what();
    EXPECT_FALSE(error.retryable());
  }
  EXPECT_GE(counter_delta(before, server.metrics(), "serve.errors.deadline"),
            1u);

  // The worker survived the cancellation and keeps serving.
  const EstimateResponse after = client.estimate(chaos_request(100));
  EXPECT_TRUE(after.ok) << after.error;
  server.stop();
}

// --------------------------------------------------------------- TCP smoke

TEST(TcpTransport, RoundTripsBitIdentically) {
  const std::vector<BettiEstimate> expected = reference_estimates(1);
  BettiServer server(small_server_options());
  TcpTransport tcp(0);
  ASSERT_NE(tcp.port(), 0);  // ephemeral port resolved at bind time
  server.start(tcp);
  {
    ServeClient client(connect_tcp(tcp.host(), tcp.port()));
    const EstimateResponse first = client.estimate(chaos_request(100));
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.estimate.zero_counts, expected[0].zero_counts);
    EXPECT_EQ(first.estimate.estimated_betti, expected[0].estimated_betti);
    const EstimateResponse second = client.estimate(chaos_request(100));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.estimate.zero_counts, first.estimate.zero_counts);
  }
  server.stop();
}

TEST(TcpTransport, ConvergesUnderChaos) {
  const int rounds = 6;
  const std::vector<BettiEstimate> expected = reference_estimates(rounds);
  BettiServer server(small_server_options());
  TcpTransport tcp(0);
  FaultInjectingTransport chaotic(
      tcp, FaultPlan::parse("13:drop_read=0.15,torn_write=0.15"));
  server.start(chaotic);
  {
    ServeClient client(
        [&tcp] { return connect_tcp(tcp.host(), tcp.port()); },
        resilient_policy(/*jitter_seed=*/60, /*timeout_ms=*/1000));
    for (int r = 0; r < rounds; ++r) {
      const EstimateResponse response =
          client.estimate(chaos_request(100 + static_cast<std::uint64_t>(r)));
      ASSERT_TRUE(response.ok) << response.error;
      const std::size_t i = static_cast<std::size_t>(r);
      EXPECT_EQ(response.estimate.zero_counts, expected[i].zero_counts);
      EXPECT_EQ(response.estimate.estimated_betti,
                expected[i].estimated_betti);
    }
  }
  server.stop();
  EXPECT_GT(chaotic.stats().total(), 0u);
}

}  // namespace
}  // namespace qtda
