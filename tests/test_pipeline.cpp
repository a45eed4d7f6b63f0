// Tests for core/pipeline.hpp: point cloud → quantum Betti features.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/random.hpp"
#include "scoped_env.hpp"

namespace qtda {
namespace {

PointCloud circle_cloud(std::size_t n, double radius = 1.0) {
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * M_PI * static_cast<double>(i) / static_cast<double>(n);
    points.push_back({radius * std::cos(angle), radius * std::sin(angle)});
  }
  return PointCloud(points);
}

TEST(Pipeline, CircleFeaturesDetectTheLoop) {
  PipelineOptions options;
  options.epsilon = 0.7;  // connects neighbours on a 10-gon of radius 1
  options.dimensions = {0, 1};
  options.estimator.precision_qubits = 9;
  options.estimator.shots = 100000;
  const auto features = extract_betti_features(circle_cloud(10), options);
  ASSERT_EQ(features.estimated.size(), 2u);
  ASSERT_EQ(features.exact.size(), 2u);
  EXPECT_EQ(features.exact[0], 1u);
  EXPECT_EQ(features.exact[1], 1u);
  EXPECT_NEAR(features.estimated[0], 1.0, 0.35);
  EXPECT_NEAR(features.estimated[1], 1.0, 0.35);
}

TEST(Pipeline, SimulatorSelectionReachesTheFactory) {
  // PipelineOptions::estimator carries the engine choice down to
  // make_simulator: the density-matrix run samples the same noiseless
  // distribution as the default statevector run, and a register past the
  // density matrix's 13-qubit cap fails with the factory's width guard.
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  PipelineOptions options;
  options.epsilon = 0.7;
  options.dimensions = {0, 1};
  options.estimator.backend = EstimatorBackend::kCircuitSparse;
  options.estimator.precision_qubits = 3;
  options.estimator.shots = 5000;
  const auto dense = extract_betti_features(circle_cloud(8), options);
  options.estimator.simulator = SimulatorKind::kDensityMatrix;
  const auto exact_channels = extract_betti_features(circle_cloud(8), options);
  ASSERT_EQ(exact_channels.estimated.size(), dense.estimated.size());
  for (std::size_t i = 0; i < dense.estimated.size(); ++i) {
    EXPECT_NEAR(exact_channels.estimated[i], dense.estimated[i], 0.05);
    EXPECT_EQ(exact_channels.exact[i], dense.exact[i]);
  }
  options.estimator.precision_qubits = 8;  // 8 + 3 + 3 = 14 qubits
  try {
    extract_betti_features(circle_cloud(8), options);
    FAIL() << "expected the density-matrix width guard to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("density-matrix"), std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, DisconnectedCloudCountsComponents) {
  // Two far-apart pairs.
  PointCloud cloud({{0.0, 0.0}, {0.1, 0.0}, {10.0, 0.0}, {10.1, 0.0}});
  PipelineOptions options;
  options.epsilon = 0.5;
  options.dimensions = {0};
  options.estimator.precision_qubits = 9;
  options.estimator.shots = 100000;
  const auto features = extract_betti_features(cloud, options);
  EXPECT_EQ(features.exact[0], 2u);
  EXPECT_NEAR(features.estimated[0], 2.0, 0.4);
}

TEST(Pipeline, ExactOnlyVariantMatchesFeatureBaseline) {
  const auto cloud = circle_cloud(8);
  PipelineOptions options;
  options.epsilon = 0.8;
  options.dimensions = {0, 1};
  options.estimator.precision_qubits = 4;
  options.estimator.shots = 100;
  const auto features = extract_betti_features(cloud, options);
  const auto exact = extract_exact_betti(cloud, 0.8, {0, 1});
  EXPECT_EQ(features.exact, exact);
}

TEST(Pipeline, EpsilonSweepChangesTopology) {
  const auto cloud = circle_cloud(8);
  // Tiny ε: 8 components, no loop.  Medium ε: 1 component, 1 loop.
  // Huge ε: everything connected, loop filled by triangles.
  const auto tiny = extract_exact_betti(cloud, 0.01, {0, 1});
  EXPECT_EQ(tiny[0], 8u);
  EXPECT_EQ(tiny[1], 0u);
  const auto medium = extract_exact_betti(cloud, 0.8, {0, 1});
  EXPECT_EQ(medium[0], 1u);
  EXPECT_EQ(medium[1], 1u);
  const auto huge = extract_exact_betti(cloud, 3.0, {0, 1});
  EXPECT_EQ(huge[0], 1u);
  EXPECT_EQ(huge[1], 0u);
}

TEST(Pipeline, EmptyDimensionListThrows) {
  PipelineOptions options;
  options.dimensions = {};
  EXPECT_THROW(extract_betti_features(circle_cloud(4), options), Error);
}

TEST(Pipeline, NegativeDimensionThrows) {
  PipelineOptions options;
  options.dimensions = {-1};
  EXPECT_THROW(extract_betti_features(circle_cloud(4), options), Error);
}

}  // namespace
}  // namespace qtda
