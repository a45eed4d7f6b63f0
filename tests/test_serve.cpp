// Tests for the serving layer (src/serve/): content-keyed artifact caching,
// protocol round-trips, batched execution, and the bit-identity contract —
// a served estimate must equal the cold CLI path bit for bit, no matter
// which cache levels answered or how requests were coalesced.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit_plans.hpp"
#include "common/error.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/sparse_matrix.hpp"
#include "metrics_delta.hpp"
#include "quantum/pauli.hpp"
#include "quantum/statevector.hpp"
#include "quantum/trotter.hpp"
#include "scoped_env.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/client.hpp"
#include "serve/errors.hpp"
#include "serve/fingerprint.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "topology/laplacian.hpp"
#include "topology/point_cloud.hpp"
#include "topology/rips.hpp"

namespace qtda {
namespace {

using testing::counter_delta;
using testing::error_delta;
using testing::ScopedSimulatorEnv;
using testing::unfused_plan;

std::vector<std::vector<double>> circle_points(std::size_t n) {
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n);
    points.push_back({std::cos(angle), std::sin(angle)});
  }
  return points;
}

EstimatorOptions sparse_options() {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  options.shots = 512;
  options.seed = 7;
  return options;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// The served fields a client reads, compared byte for byte.
void expect_same_estimate_bytes(const BettiEstimate& served,
                                const BettiEstimate& cli) {
  EXPECT_EQ(served.zero_counts, cli.zero_counts);
  EXPECT_EQ(bits_of(served.estimated_betti), bits_of(cli.estimated_betti));
  EXPECT_EQ(bits_of(served.exact_zero_probability),
            bits_of(cli.exact_zero_probability));
  EXPECT_EQ(served.total_qubits, cli.total_qubits);
  EXPECT_EQ(served.circuit_gates, cli.circuit_gates);
}

constexpr EstimatorBackend kAllBackends[] = {
    EstimatorBackend::kAnalytic, EstimatorBackend::kCircuitExact,
    EstimatorBackend::kCircuitSparse, EstimatorBackend::kCircuitTrotter};

// ---------------------------------------------------------------- fingerprints

TEST(ServeFingerprint, NegativeZeroCanonicalized) {
  // −0.0 == +0.0 arithmetically, so the two clouds build identical
  // complexes — the fingerprint must not tell them apart.
  const PointCloud a({{0.0, 1.0}, {2.0, 0.0}});
  const PointCloud b({{-0.0, 1.0}, {2.0, -0.0}});
  EXPECT_EQ(fingerprint_point_cloud(a), fingerprint_point_cloud(b));
}

TEST(ServeFingerprint, DistinctContentDiffers) {
  const PointCloud a({{0.0, 1.0}, {2.0, 0.0}});
  const PointCloud b({{0.0, 1.0}, {2.0, 1e-9}});
  const PointCloud c({{0.0, 1.0}});
  EXPECT_NE(fingerprint_point_cloud(a), fingerprint_point_cloud(b));
  EXPECT_NE(fingerprint_point_cloud(a), fingerprint_point_cloud(c));
}

// ----------------------------------------------------------------- LRU cache

using IntCache = ShardedLruCache<int>;

IntCache::Sized sized_int(int value, std::size_t bytes) {
  return {std::make_shared<const int>(value), bytes};
}

TEST(ServeLruCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  IntCache cache(/*budget_bytes=*/64, /*num_shards=*/1);
  for (int i = 0; i < 3; ++i)
    cache.get_or_create("k" + std::to_string(i), [&] { return sized_int(i, 24); });
  // 3 × 24 = 72 > 64: the oldest entry (k0) must have been evicted.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 64u);

  bool hit = true;
  cache.get_or_create("k0", [&] { return sized_int(0, 24); }, &hit);
  EXPECT_FALSE(hit);  // k0 was evicted
  cache.get_or_create("k2", [&] { return sized_int(2, 24); }, &hit);
  EXPECT_TRUE(hit);   // k2 is the hottest entry
}

TEST(ServeLruCache, HitRefreshesRecency) {
  IntCache cache(/*budget_bytes=*/50, /*num_shards=*/1);
  cache.get_or_create("a", [&] { return sized_int(1, 20); });
  cache.get_or_create("b", [&] { return sized_int(2, 20); });
  cache.get_or_create("a", [&] { return sized_int(1, 20); });  // refresh a
  cache.get_or_create("c", [&] { return sized_int(3, 20); });  // evicts b

  bool hit = false;
  cache.get_or_create("a", [&] { return sized_int(1, 20); }, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_create("b", [&] { return sized_int(2, 20); }, &hit);
  EXPECT_FALSE(hit);
}

TEST(ServeLruCache, OversizedValueServedButNeverCached) {
  IntCache cache(/*budget_bytes=*/64, /*num_shards=*/1);
  const auto value = cache.get_or_create(
      "huge", [&] { return sized_int(9, 1000); });
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 9);
  EXPECT_EQ(cache.stats().entries, 0u);
  bool hit = true;
  cache.get_or_create("huge", [&] { return sized_int(9, 1000); }, &hit);
  EXPECT_FALSE(hit);
}

// ----------------------------------------------------------------- plan keys

TEST(ServePlanKey, EveryAxisSeparatesKeys) {
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  EstimatorOptions base = sparse_options();

  std::set<std::string> keys;
  const auto insert = [&](std::uint64_t fp, int k,
                          const EstimatorOptions& options) {
    keys.insert(ArtifactStore::plan_key(fp, k, options));
  };
  insert(1, 1, base);
  insert(2, 1, base);  // different complex content
  insert(1, 2, base);  // different homology dimension

  EstimatorOptions variant = base;
  variant.precision = Precision::kFloat32;
  insert(1, 1, variant);

  variant = base;
  variant.backend = EstimatorBackend::kCircuitTrotter;
  insert(1, 1, variant);
  variant.trotter.steps = 5;
  insert(1, 1, variant);
  variant.trotter.steps = 5;
  variant.trotter.order = 2;
  insert(1, 1, variant);
  variant.trotter.group_commuting = false;
  insert(1, 1, variant);

  variant = base;
  variant.mixed_state = MixedStateMode::kSampledBasis;
  insert(1, 1, variant);

  variant = base;
  variant.precision_qubits = 5;
  insert(1, 1, variant);

  variant = base;
  variant.delta = 0.25;
  insert(1, 1, variant);

  variant = base;
  variant.backend = EstimatorBackend::kAnalytic;
  insert(1, 1, variant);

  variant = base;
  variant.backend = EstimatorBackend::kCircuitExact;
  insert(1, 1, variant);

  EXPECT_EQ(keys.size(), 13u);  // no two option sets may collide
}

TEST(ServePlanKey, FusionEnvironmentIsAKeyAxis) {
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  const EstimatorOptions options = sparse_options();
  const std::string fused = ArtifactStore::plan_key(1, 1, options);

  setenv("QTDA_FUSE", "0", 1);
  const std::string unfused = ArtifactStore::plan_key(1, 1, options);
  EXPECT_NE(fused, unfused);
}

// ------------------------------------------------------------- artifact store

TEST(ServeArtifactStore, WarmResolveHitsEveryLevelWithTheSamePlan) {
  ArtifactStore store;
  const PointCloud cloud(circle_points(8));
  const EstimatorOptions options = sparse_options();

  const ResolvedArtifacts cold = store.resolve(cloud, 1.0, 1, options);
  EXPECT_FALSE(cold.complex_hit);
  EXPECT_FALSE(cold.laplacian_hit);
  EXPECT_FALSE(cold.plan_hit);
  ASSERT_NE(cold.plan, nullptr);

  const ResolvedArtifacts warm = store.resolve(cloud, 1.0, 1, options);
  EXPECT_TRUE(warm.complex_hit);
  EXPECT_TRUE(warm.laplacian_hit);
  EXPECT_TRUE(warm.plan_hit);
  EXPECT_EQ(warm.plan.get(), cold.plan.get());  // literally the same artifact
  EXPECT_EQ(store.plan_stats().entries, 1u);
}

TEST(ServeArtifactStore, TranslatedCloudSharesEverythingPastTheComplex) {
  // A rigid translation changes every coordinate (different cloud
  // fingerprint) but no distance: the induced complex is identical, so the
  // Laplacian and plan levels — keyed on the *complex* fingerprint — hit.
  ArtifactStore store;
  const EstimatorOptions options = sparse_options();
  auto points = circle_points(8);
  const ResolvedArtifacts first =
      store.resolve(PointCloud(points), 1.0, 1, options);
  for (auto& p : points) {
    p[0] += 10.0;
    p[1] -= 3.0;
  }
  const ResolvedArtifacts second =
      store.resolve(PointCloud(points), 1.0, 1, options);
  EXPECT_FALSE(second.complex_hit);
  EXPECT_TRUE(second.laplacian_hit);
  EXPECT_TRUE(second.plan_hit);
  EXPECT_EQ(second.plan.get(), first.plan.get());
  EXPECT_EQ(second.complex_fingerprint, first.complex_fingerprint);
}

TEST(ServeArtifactStore, PrecisionNeverAliasesPlans) {
  ArtifactStore store;
  const PointCloud cloud(circle_points(8));
  EstimatorOptions options = sparse_options();
  const ResolvedArtifacts f64 = store.resolve(cloud, 1.0, 1, options);
  options.precision = Precision::kFloat32;
  const ResolvedArtifacts f32 = store.resolve(cloud, 1.0, 1, options);
  EXPECT_FALSE(f32.plan_hit);
  EXPECT_NE(f32.plan.get(), f64.plan.get());
  EXPECT_EQ(store.plan_stats().entries, 2u);
}

TEST(ServeArtifactStore, TinyBudgetStillServesWithoutCaching) {
  // A budget far below one plan's footprint: every resolve computes fresh
  // artifacts (served, never admitted) instead of failing or thrashing.
  ArtifactStoreOptions tiny;
  tiny.budget_bytes = 512;
  tiny.shards = 1;
  ArtifactStore store(tiny);
  const PointCloud cloud(circle_points(8));
  const EstimatorOptions options = sparse_options();
  const ResolvedArtifacts first = store.resolve(cloud, 1.0, 1, options);
  const ResolvedArtifacts second = store.resolve(cloud, 1.0, 1, options);
  ASSERT_NE(first.plan, nullptr);
  ASSERT_NE(second.plan, nullptr);
  EXPECT_FALSE(second.plan_hit);
  EXPECT_EQ(store.plan_stats().entries, 0u);

  // And the fresh plans still agree bit for bit.
  const BettiEstimate a = estimate_betti_with_plan(first.plan->compiled, options);
  const BettiEstimate b =
      estimate_betti_with_plan(second.plan->compiled, options);
  EXPECT_EQ(a.zero_counts, b.zero_counts);
}

// ----------------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTrips) {
  EstimateRequest request;
  request.id = "r42";
  request.epsilon = 1.0 / 3.0;
  request.k = 2;
  request.options.backend = EstimatorBackend::kCircuitTrotter;
  request.options.precision_qubits = 5;
  request.options.shots = 123;
  request.options.seed = 99;
  request.options.delta = 0.1;
  request.options.mixed_state = MixedStateMode::kSampledBasis;
  request.options.precision = Precision::kFloat32;
  request.options.trotter.steps = 3;
  request.options.trotter.order = 2;
  request.deadline_ms = 250;
  request.points = {{0.1, 0.2}, {1.0 / 7.0, -0.25}};

  const EstimateRequest parsed = parse_request(format_request(request));
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.epsilon, request.epsilon);  // %.17g round-trips exactly
  EXPECT_EQ(parsed.k, request.k);
  EXPECT_EQ(parsed.options.backend, request.options.backend);
  EXPECT_EQ(parsed.options.precision_qubits, request.options.precision_qubits);
  EXPECT_EQ(parsed.options.shots, request.options.shots);
  EXPECT_EQ(parsed.options.seed, request.options.seed);
  EXPECT_EQ(parsed.options.delta, request.options.delta);
  EXPECT_EQ(parsed.options.mixed_state, request.options.mixed_state);
  EXPECT_EQ(parsed.options.precision, request.options.precision);
  EXPECT_EQ(parsed.options.trotter.steps, request.options.trotter.steps);
  EXPECT_EQ(parsed.options.trotter.order, request.options.trotter.order);
  EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed.points, request.points);
}

TEST(ServeProtocol, ResponseRoundTrips) {
  EstimateResponse response;
  response.id = "r7";
  response.ok = true;
  response.estimate.estimated_betti = 1.0 + 1.0 / 3.0;
  response.estimate.rounded_betti = 1;
  response.estimate.zero_probability = 0.125;
  response.estimate.exact_zero_probability = 0.126;
  response.estimate.zero_counts = 64;
  response.estimate.shots = 512;
  response.estimate.system_qubits = 3;
  response.estimate.precision_qubits = 4;
  response.estimate.circuit_gates = 99;
  response.estimate.circuit_depth = 12;
  response.complex_hit = true;
  response.plan_hit = true;
  response.batch_size = 4;

  const EstimateResponse parsed = parse_response(format_response(response));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, response.id);
  EXPECT_EQ(parsed.estimate.estimated_betti, response.estimate.estimated_betti);
  EXPECT_EQ(parsed.estimate.zero_counts, response.estimate.zero_counts);
  EXPECT_EQ(parsed.estimate.shots, response.estimate.shots);
  EXPECT_TRUE(parsed.complex_hit);
  EXPECT_FALSE(parsed.laplacian_hit);
  EXPECT_TRUE(parsed.plan_hit);
  EXPECT_EQ(parsed.batch_size, 4u);
}

TEST(ServeProtocol, ErrorResponseRoundTrips) {
  EstimateResponse response;
  response.id = "r9";
  response.ok = false;
  response.error = "points disagree on dimension";
  const EstimateResponse parsed = parse_response(format_response(response));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.id, "r9");
  EXPECT_EQ(parsed.error, "points disagree on dimension");
}

TEST(ServeProtocol, MalformedLinesThrow) {
  EXPECT_THROW(classify_request_line("launch_missiles"), Error);
  EXPECT_THROW(parse_request("estimate"), Error);  // no points
  EXPECT_THROW(parse_request("estimate points=1,2;3"), Error);  // ragged
  EXPECT_THROW(parse_request("estimate bogus=1 points=0,0;1,1"), Error);
  EXPECT_EQ(classify_request_line("ping"), ServeCommand::kPing);
  EXPECT_EQ(classify_request_line("stats"), ServeCommand::kStats);
  EXPECT_EQ(classify_request_line("shutdown"), ServeCommand::kShutdown);
}

// ------------------------------------------------------- served bit-identity

TEST(ServeBitIdentity, ServedEstimateMatchesCliPathColdAndWarm) {
  // Every backend, served through the compiled-estimate cache: the cold
  // request misses and the repeat hits every level, both with the bytes of
  // the cold CLI path the paper experiments run.
  const auto points = circle_points(8);
  const SimplicialComplex complex = rips_complex(PointCloud(points), 1.0, 2);
  BettiServer server;
  for (EstimatorBackend backend : kAllBackends) {
    SCOPED_TRACE(estimator_backend_name(backend));
    EstimateRequest request;
    request.id = "t";
    request.points = points;
    request.epsilon = 1.0;
    request.k = 1;
    request.options = sparse_options();
    request.options.backend = backend;
    const BettiEstimate cli = estimate_betti(complex, 1, request.options);

    const EstimateResponse cold = server.handle(request);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.plan_hit);
    expect_same_estimate_bytes(cold.estimate, cli);
    EXPECT_EQ(cold.estimate.rounded_betti, cli.rounded_betti);

    const EstimateResponse warm = server.handle(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.plan_hit);
    EXPECT_TRUE(warm.complex_hit);
    EXPECT_TRUE(warm.laplacian_hit);
    expect_same_estimate_bytes(warm.estimate, cli);
  }
  EXPECT_EQ(server.metrics().gauges.at("cache.plan.entries"),
            static_cast<std::int64_t>(std::size(kAllBackends)));
}

TEST(ServeBitIdentity, EmptyComplexShortCircuitsLikeEstimateBetti) {
  BettiServer server;
  EstimateRequest request;
  request.points = {{0.0, 0.0}, {100.0, 0.0}};  // no edges at ε = 1
  request.epsilon = 1.0;
  request.k = 1;
  request.options = sparse_options();
  const EstimateResponse response = server.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.estimate.estimated_betti, 0.0);
  EXPECT_EQ(response.estimate.rounded_betti, 0u);
  EXPECT_EQ(response.estimate.shots, request.options.shots);
}

// ------------------------------------------------------------------ batching

TEST(ServeBatch, BatchedExecutionIsBitIdenticalToSerial) {
  const SimplicialComplex complex =
      rips_complex(PointCloud(circle_points(8)), 1.0, 2);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  for (EstimatorBackend backend :
       {EstimatorBackend::kCircuitSparse, EstimatorBackend::kCircuitTrotter,
        EstimatorBackend::kCircuitExact}) {
    SCOPED_TRACE(estimator_backend_name(backend));
    EstimatorOptions base = sparse_options();
    base.backend = backend;
    const CompiledEstimate compiled = compile_betti_estimate(laplacian, base);

    std::vector<EstimatorOptions> requests(5, base);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].seed = 1000 + 17 * i;
      requests[i].shots = 128 + 64 * i;  // shots may vary inside one batch
    }
    const std::vector<BettiEstimate> batched =
        estimate_betti_batch(compiled, requests);
    ASSERT_EQ(batched.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "request " << i);
      const BettiEstimate serial =
          estimate_betti_with_plan(compiled, requests[i]);
      expect_same_estimate_bytes(batched[i], serial);
      EXPECT_EQ(batched[i].shots, serial.shots);
    }
  }
}

TEST(ServeBatch, RejectsRequestsOutsideTheBatchableRegime) {
  const SimplicialComplex complex =
      rips_complex(PointCloud(circle_points(8)), 1.0, 2);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  EstimatorOptions base = sparse_options();
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, base);

  // Sampled-basis mixtures draw their basis states per request — one shared
  // evolution cannot serve them.
  EstimatorOptions sampled = base;
  sampled.mixed_state = MixedStateMode::kSampledBasis;
  EXPECT_THROW(estimate_betti_batch(compiled, {sampled}), Error);

  // Requests inside one batch must share the engine configuration.
  EstimatorOptions f32 = base;
  f32.precision = Precision::kFloat32;
  EXPECT_THROW(estimate_betti_batch(compiled, {base, f32}), Error);

  // An analytic estimate carries no plan, so there is no evolution to share.
  EstimatorOptions analytic = base;
  analytic.backend = EstimatorBackend::kAnalytic;
  EXPECT_THROW(estimate_betti_batch(compile_betti_estimate(laplacian, analytic),
                                    {analytic}),
               Error);
}

// ------------------------------------------------------------ loopback serve

TEST(ServeServer, ConcurrentLoopbackClientsGetBitIdenticalAnswers) {
  const auto points = circle_points(8);
  EstimatorOptions options = sparse_options();
  options.shots = 256;

  // Ground truth per seed via the cold CLI path.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  const SimplicialComplex complex =
      rips_complex(PointCloud(points), 1.0, 2);
  std::vector<std::uint64_t> expected(kThreads * kPerThread);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EstimatorOptions request_options = options;
    request_options.seed = 100 + i;
    expected[i] = estimate_betti(complex, 1, request_options).zero_counts;
  }

  BettiServer server;
  const MetricsReport before = server.metrics();
  LoopbackTransport transport;
  server.start(transport);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ServeClient client(transport.connect());
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t index = static_cast<std::size_t>(t * kPerThread + i);
        EstimateRequest request;
        request.points = points;
        request.epsilon = 1.0;
        request.k = 1;
        request.options = options;
        request.options.seed = 100 + index;
        const EstimateResponse response = client.estimate(request);
        if (!response.ok) failures.fetch_add(1);
        else if (response.estimate.zero_counts != expected[index])
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  ServeClient observer(transport.connect());
  const std::string stats = observer.stats();
  EXPECT_EQ(stats.rfind("stats ", 0), 0u) << stats;
  EXPECT_NE(stats.find(" serve.admitted="), std::string::npos);
  observer.shutdown();
  server.stop();

  const MetricsReport after = server.metrics();
  EXPECT_GE(counter_delta(before, after, "serve.admitted"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(error_delta(before, after), 0u);
}

TEST(ServeServer, ExactBurstReturnsTheCliBytesForEveryRequest) {
  // Same-key exact requests are batchable now; whether this burst coalesces
  // depends on queue timing, so only the answers are asserted.
  const auto points = circle_points(8);
  EstimatorOptions options = sparse_options();
  options.backend = EstimatorBackend::kCircuitExact;
  options.shots = 256;
  const SimplicialComplex complex = rips_complex(PointCloud(points), 1.0, 2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<BettiEstimate> expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    EstimatorOptions request_options = options;
    request_options.seed = 300 + static_cast<std::uint64_t>(i);
    expected.push_back(estimate_betti(complex, 1, request_options));
  }

  BettiServer server;
  const MetricsReport before = server.metrics();
  LoopbackTransport transport;
  server.start(transport);
  std::vector<EstimateResponse> responses(expected.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ServeClient client(transport.connect());
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t index = static_cast<std::size_t>(t * kPerThread + i);
        EstimateRequest request;
        request.points = points;
        request.epsilon = 1.0;
        request.k = 1;
        request.options = options;
        request.options.seed = 300 + index;
        responses[index] = client.estimate(request);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.stop();

  for (std::size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "request " << i);
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    expect_same_estimate_bytes(responses[i].estimate, expected[i]);
  }
  EXPECT_EQ(error_delta(before, server.metrics()), 0u);
}

/// A numeric field of /proc/self/status, e.g. "Threads:" or "VmSize:" (in
/// kB); -1 if it cannot be read.
long status_field(const std::string& name) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(name, 0) == 0) return std::stol(line.substr(name.size()));
  return -1;
}

// Every connection used to keep its finished reader thread until stop():
// an exited but unjoined thread no longer counts in Threads:, but its stack
// reservation stays mapped.  The acceptor now joins finished readers before
// starting the next one, so neither count grows with connection churn.  A
// reader that has answered its last line may still be on its way out when
// the loop ends (a loaded host delays it), so both bounds are polled for up
// to 5 s before they are asserted.
TEST(ServeServer, SequentialConnectionsDoNotAccumulateReaderThreads) {
  BettiServer server;
  LoopbackTransport transport;
  server.start(transport);
  const long threads_before = status_field("Threads:");
  const long vm_before_kb = status_field("VmSize:");
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vm_before_kb, 0);
  for (int i = 0; i < 500; ++i) {
    const std::shared_ptr<Connection> connection = transport.connect();
    ASSERT_TRUE(connection->write_line("ping"));
    const std::optional<std::string> reply = connection->read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "pong");
    connection->close();
  }
  // 500 leaked stacks would map gigabytes; a few live readers map a few
  // stacks.
  const long threads_bound = threads_before + 4;
  const long vm_bound_kb = vm_before_kb + 256 * 1024;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  long threads = status_field("Threads:");
  long vm_kb = status_field("VmSize:");
  while ((threads > threads_bound || vm_kb > vm_bound_kb) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    threads = status_field("Threads:");
    vm_kb = status_field("VmSize:");
  }
  EXPECT_LE(threads, threads_bound);
  EXPECT_LE(vm_kb, vm_bound_kb);
  server.stop();
}

// ------------------------------------------------------ one metrics report

/// The fields of a `stats` line, name → value text.
std::map<std::string, std::string> stats_fields(const std::string& line) {
  std::istringstream tokens(line);
  std::string token;
  tokens >> token;
  EXPECT_EQ(token, "stats") << line;
  std::map<std::string, std::string> fields;
  while (tokens >> token) {
    const std::size_t equals = token.find('=');
    EXPECT_NE(equals, std::string::npos) << token;
    if (equals != std::string::npos)
      fields[token.substr(0, equals)] = token.substr(equals + 1);
  }
  return fields;
}

/// A per-test socket path, so parallel test processes never share one.
std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "qtda_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

// `stats` is a one-line view of the `metrics` report: on a quiescent server
// it names exactly the report's counters and gauges, with the same values,
// and neither surface carries the retired duplicates.
TEST(ServeMetrics, StatsLineIsAViewOfTheMetricsReport) {
  ServerOptions options;
  options.limits.max_shots = 1000;
  BettiServer server(options);
  LoopbackTransport transport;
  server.start(transport);
  ServeClient client(transport.connect());
  EstimateRequest request;
  request.points = circle_points(8);
  request.epsilon = 1.0;
  request.k = 1;
  request.options = sparse_options();
  request.options.shots = 64;
  ASSERT_TRUE(client.estimate(request).ok);
  ASSERT_TRUE(client.estimate(request).ok);
  request.options.shots = 5000;
  EXPECT_THROW(client.estimate(request), ServeError);

  const std::map<std::string, std::string> fields =
      stats_fields(client.stats());
  const MetricsReport metrics = client.metrics();
  for (const auto& [name, value] : fields) {
    SCOPED_TRACE(name);
    const auto counter = metrics.counters.find(name);
    const auto gauge = metrics.gauges.find(name);
    if (counter != metrics.counters.end()) {
      EXPECT_EQ(value, std::to_string(counter->second));
    } else {
      ASSERT_NE(gauge, metrics.gauges.end()) << "not in the metrics report";
      EXPECT_EQ(value, std::to_string(gauge->second));
    }
  }
  EXPECT_EQ(fields.size(), metrics.counters.size() + metrics.gauges.size());
  for (const char* name :
       {"serve.admitted", "serve.completed", "serve.batches",
        "serve.batched_requests", "serve.errors.limit", "cache.plan.hits",
        "cache.plan.entries", "cache.expm.hits", "serve.queue_depth"})
    EXPECT_EQ(fields.count(name), 1u) << name;
  EXPECT_NE(fields.at("serve.errors.limit"), "0");
  for (const char* retired :
       {"serve.shed", "serve.deadline_misses", "serve.errors", "admitted"}) {
    EXPECT_EQ(fields.count(retired), 0u) << retired;
    EXPECT_EQ(metrics.counters.count(retired), 0u) << retired;
  }
  client.shutdown();
  server.stop();
}

// A refusal is counted before its reply is written: a client that has read
// a `limit` or a `protocol` reply sees it counted by its very next scrape
// on another connection, on either surface.  Over a real socket, as a
// daemon's clients see it.
TEST(ServeMetrics, RefusalsAreCountedBeforeTheirRepliesAreWritten) {
  ServerOptions options;
  options.limits.max_shots = 10;
  BettiServer server(options);
  UnixSocketTransport transport(socket_path("refusals"));
  server.start(transport);
  const std::shared_ptr<Connection> offender = connect_unix(transport.path());
  ServeClient observer(connect_unix(transport.path()));
  EstimateRequest request;
  request.id = "over";
  request.points = circle_points(4);
  request.epsilon = 1.0;
  request.k = 1;
  request.options = sparse_options();  // 512 shots > max_shots
  const std::string over_limit = format_request(request);

  MetricsReport previous = observer.metrics();
  // Sends \p line, reads its reply, then scrapes `stats` and `metrics`:
  // both must show exactly one more refusal, counted under \p code.
  const auto refuse_and_scrape = [&](const std::string& line,
                                     ServeErrorCode code) {
    ASSERT_TRUE(offender->write_line(line));
    const std::optional<std::string> reply = offender->read_line();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(parse_response(*reply).code, code) << *reply;
    const std::string name =
        std::string("serve.errors.") + serve_error_name(code);
    const std::map<std::string, std::string> fields =
        stats_fields(observer.stats());
    ASSERT_EQ(fields.count(name), 1u) << name;
    EXPECT_EQ(fields.at(name), std::to_string(previous.counters.at(name) + 1))
        << name;
    const MetricsReport current = observer.metrics();
    EXPECT_EQ(counter_delta(previous, current, name), 1u) << name;
    EXPECT_EQ(error_delta(previous, current), 1u);
    previous = current;
  };
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    refuse_and_scrape(over_limit, ServeErrorCode::kLimit);
    refuse_and_scrape("frobnicate", ServeErrorCode::kProtocol);
  }
  offender->close();
  observer.shutdown();
  server.stop();
}

// A socket reader holds at most max_line_bytes + 1 bytes of one line: the
// rest of an over-long line is dropped as it arrives, the truncated prefix
// comes back as one line (long enough for the server's size check, and it
// keeps the request's leading id= token), and the next line is intact.
TEST(ServeTransport, SocketReadStopsBufferingPastTheLineCap) {
  UnixSocketTransport transport(socket_path("line_cap"));
  const std::shared_ptr<Connection> client = connect_unix(transport.path());
  const std::shared_ptr<Connection> server_side = transport.accept();
  ASSERT_NE(server_side, nullptr);
  server_side->set_max_line_bytes(1024);

  const std::string huge = "estimate id=huge " + std::string(1 << 20, 'x');
  std::thread writer([&client, &huge] {
    EXPECT_TRUE(client->write_line(huge));
    EXPECT_TRUE(client->write_line("ping"));
  });
  const std::optional<std::string> truncated = server_side->read_line();
  const std::optional<std::string> next = server_side->read_line();
  writer.join();
  ASSERT_TRUE(truncated.has_value());
  EXPECT_EQ(truncated->size(), 1025u);
  EXPECT_EQ(*truncated, huge.substr(0, 1025));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, "ping");
  client->close();
  server_side->close();
}

// --------------------------------------------------------- expm memo bounds

TEST(ServeExpmCache, CountsHitsAndMissesAndStaysBounded) {
  expm_coefficient_cache_clear();
  ExpmCoefficientCacheStats stats = expm_coefficient_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);

  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  const SparseExpOperator first(a, 0.5, 0.0, 2.0);
  stats = expm_coefficient_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const SparseExpOperator second(a, 0.5, 0.0, 2.0);
  stats = expm_coefficient_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(second.coefficients().get(), first.coefficients().get());

  // Flood with distinct θ: the memo must evict instead of growing without
  // bound (the long-running daemon condition).
  for (int i = 0; i < 600; ++i)
    SparseExpOperator flood(a, 0.5 + 0.001 * (i + 1), 0.0, 2.0);
  stats = expm_coefficient_cache_stats();
  EXPECT_LE(stats.entries, 512u);
  EXPECT_GE(stats.evictions, 89u);  // 601 distinct keys into 512 slots
  expm_coefficient_cache_clear();
  EXPECT_EQ(expm_coefficient_cache_stats().entries, 0u);
}

// ----------------------------------------------------------- trotter grouping

TEST(TrotterGrouping, PartitionsBySharedBasisSignature) {
  const PauliSum sum({{0.3, PauliString("XZ")},
                      {0.5, PauliString("XI")},
                      {0.7, PauliString("ZI")},
                      {0.9, PauliString("IZ")},
                      {1.1, PauliString("YY")}});
  const auto groups = group_commuting_terms(sum);
  ASSERT_EQ(groups.size(), 3u);
  // First-occurrence order, original order inside each family.
  ASSERT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[0][0].string.to_string(), "XZ");
  EXPECT_EQ(groups[0][1].string.to_string(), "XI");
  ASSERT_EQ(groups[1].size(), 2u);
  EXPECT_EQ(groups[1][0].string.to_string(), "ZI");
  EXPECT_EQ(groups[1][1].string.to_string(), "IZ");
  ASSERT_EQ(groups[2].size(), 1u);
  EXPECT_EQ(groups[2][0].string.to_string(), "YY");
  EXPECT_EQ(groups[2][0].coefficient, 1.1);
}

TEST(TrotterGrouping, GroupedCircuitIsSmallerAndExactForACommutingFamily) {
  // XZ and XI share the basis signature X⊗I: one wall pair serves both, and
  // because they commute exactly the grouped and ungrouped circuits realize
  // the *same* unitary — so here grouping must change gate count only.
  const PauliSum sum({{0.3, PauliString("XZ")}, {0.5, PauliString("XI")}});
  const double time = 0.9;
  TrotterOptions grouped_options;
  grouped_options.group_commuting = true;
  TrotterOptions ungrouped_options;
  ungrouped_options.group_commuting = false;
  const Circuit grouped = trotter_circuit(sum, time, grouped_options, 2);
  const Circuit ungrouped = trotter_circuit(sum, time, ungrouped_options, 2);
  EXPECT_LT(grouped.gate_count(), ungrouped.gate_count());

  double worst = 0.0;
  for (std::uint64_t basis = 0; basis < 4; ++basis) {
    Statevector g(2), u(2);
    g.set_basis_state(basis);
    u.set_basis_state(basis);
    g.apply_plan(unfused_plan(grouped));
    u.apply_plan(unfused_plan(ungrouped));
    for (std::uint64_t row = 0; row < 4; ++row)
      worst = std::max(worst, std::abs(g.amplitude(row) - u.amplitude(row)));
  }
  EXPECT_LT(worst, 1e-12);

  // And both match the dense reference e^{i·t·H} (commuting ⇒ no Trotter
  // error even in one step).
  RealMatrix h(4, 4);
  const ComplexMatrix dense = sum.matrix();
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) h(r, c) = dense(r, c).real();
  const ComplexMatrix reference = unitary_exp(h, time);
  double vs_reference = 0.0;
  for (std::uint64_t col = 0; col < 4; ++col) {
    Statevector g(2);
    g.set_basis_state(col);
    g.apply_plan(unfused_plan(grouped));
    for (std::uint64_t row = 0; row < 4; ++row)
      vs_reference = std::max(vs_reference,
                              std::abs(g.amplitude(row) - reference(row, col)));
  }
  EXPECT_LT(vs_reference, 1e-12);
}

}  // namespace
}  // namespace qtda
