// Tests for core/betti_estimator.hpp: backend agreement and correctness.
#include "core/betti_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "statistical_checks.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

SimplicialComplex hollow_triangle() {
  return SimplicialComplex::from_simplices(
      {Simplex{0, 1}, Simplex{1, 2}, Simplex{0, 2}}, true);
}

RealMatrix paper_delta1() {
  return RealMatrix{{3, 0, 0, 0, 0, 0},  {0, 3, 0, -1, -1, 0},
                    {0, 0, 3, -1, -1, 0}, {0, -1, -1, 2, 1, -1},
                    {0, -1, -1, 1, 2, 1}, {0, 0, 0, -1, 1, 2}};
}

TEST(Estimator, AnalyticBackendRecoversWorkedExampleBetti) {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kAnalytic;
  options.precision_qubits = 6;
  options.shots = 100000;
  options.delta = 6.0;
  const auto estimate = estimate_betti_from_laplacian(paper_delta1(), options);
  EXPECT_EQ(estimate.rounded_betti, 1u);
  EXPECT_NEAR(estimate.estimated_betti, 1.0, 0.15);
  EXPECT_EQ(estimate.system_qubits, 3u);
  EXPECT_DOUBLE_EQ(estimate.lambda_max, 6.0);
}

TEST(Estimator, ExactProbabilityApproachesBettiOver2q) {
  // With many precision qubits p(0) → β/2^q.
  EstimatorOptions options;
  options.precision_qubits = 10;
  options.shots = 1;
  options.delta = 6.0;
  const auto estimate = estimate_betti_from_laplacian(paper_delta1(), options);
  EXPECT_NEAR(estimate.exact_zero_probability, 1.0 / 8.0, 2e-3);
}

TEST(Estimator, CircuitExactMatchesAnalyticProbability) {
  EstimatorOptions analytic;
  analytic.backend = EstimatorBackend::kAnalytic;
  analytic.precision_qubits = 3;
  analytic.shots = 20000;
  analytic.delta = 6.0;

  EstimatorOptions circuit = analytic;
  circuit.backend = EstimatorBackend::kCircuitExact;

  const auto a = estimate_betti_from_laplacian(paper_delta1(), analytic);
  const auto c = estimate_betti_from_laplacian(paper_delta1(), circuit);
  // Both sample the same underlying p(0); exact probabilities are equal and
  // the estimates agree within shot noise (≈ 4σ ≈ 0.013).
  EXPECT_DOUBLE_EQ(a.exact_zero_probability, c.exact_zero_probability);
  EXPECT_NEAR(a.zero_probability, c.zero_probability, 0.015);
  EXPECT_GT(c.circuit_gates, 0u);
  EXPECT_GT(c.circuit_depth, 0u);
}

TEST(Estimator, SampledBasisMatchesPurification) {
  EstimatorOptions purified;
  purified.backend = EstimatorBackend::kCircuitExact;
  purified.mixed_state = MixedStateMode::kPurification;
  purified.precision_qubits = 3;
  purified.shots = 20000;
  purified.delta = 6.0;

  EstimatorOptions sampled = purified;
  sampled.mixed_state = MixedStateMode::kSampledBasis;

  const auto p = estimate_betti_from_laplacian(paper_delta1(), purified);
  const auto s = estimate_betti_from_laplacian(paper_delta1(), sampled);
  EXPECT_NEAR(p.zero_probability, s.zero_probability, 0.015);
  // The sampled-basis register is q qubits narrower.
  EXPECT_EQ(p.total_qubits, s.total_qubits + p.system_qubits);
}

/// 32 Strang steps per unit time on the worked example, 20,000 shots.
EstimatorOptions converged_trotter_options() {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitTrotter;
  options.precision_qubits = 3;
  options.shots = 20000;
  options.delta = 6.0;
  options.trotter = {32, 2};
  return options;
}

TEST(Estimator, TrotterBackendConvergesToExact) {
  // Deterministic: at 32 steps the compiled plan's own p(0) lies within
  // 1e-6 of the analytic value (measured: 5.1e-7).
  const CompiledEstimate compiled = compile_betti_estimate(
      SparseMatrix::from_dense(paper_delta1()), converged_trotter_options());
  EXPECT_NEAR(testing::plan_zero_probability(compiled),
              compiled.exact_zero_probability, 1e-6);
}

TEST(Estimator, TrotterShotsAreBinomialInThePlanProbability) {
  // Sampling: the zero counts are a Binomial(shots, p_plan(0)) draw; a
  // correct sampler leaves the interval with probability 1e-9.
  const EstimatorOptions options = converged_trotter_options();
  const CompiledEstimate compiled = compile_betti_estimate(
      SparseMatrix::from_dense(paper_delta1()), options);
  const testing::CountInterval accepted =
      testing::binomial_acceptance_interval(
          options.shots, testing::plan_zero_probability(compiled), 1e-9);
  const BettiEstimate estimate = estimate_betti_with_plan(compiled, options);
  EXPECT_GE(estimate.zero_counts, accepted.lo);
  EXPECT_LE(estimate.zero_counts, accepted.hi);
  EXPECT_EQ(estimate.rounded_betti, 1u);
}

TEST(Estimator, ZeroPaddingInflatesEstimate) {
  // Ablation: the paper's warning quantified.  Zero padding adds
  // 2^q − |S_k| = 2 ghost kernel states → β̃ ≈ 3 instead of 1.
  EstimatorOptions options;
  options.precision_qubits = 8;
  options.shots = 100000;
  options.delta = 6.0;
  options.padding = PaddingScheme::kZero;
  const auto inflated = estimate_betti_from_laplacian(paper_delta1(), options);
  EXPECT_EQ(inflated.rounded_betti, 3u);

  options.padding = PaddingScheme::kIdentityHalfLambdaMax;
  const auto correct = estimate_betti_from_laplacian(paper_delta1(), options);
  EXPECT_EQ(correct.rounded_betti, 1u);
}

TEST(Estimator, ComplexOverloadUsesLaplacian) {
  EstimatorOptions options;
  options.precision_qubits = 6;
  options.shots = 50000;
  const auto complex = hollow_triangle();
  const auto estimate = estimate_betti(complex, 1, options);
  EXPECT_EQ(estimate.rounded_betti, betti_number(complex, 1));
  EXPECT_EQ(estimate.rounded_betti, 1u);
}

TEST(Estimator, EmptyDimensionGivesZeroEstimate) {
  EstimatorOptions options;
  const auto complex = hollow_triangle();
  const auto estimate = estimate_betti(complex, 2, options);
  EXPECT_DOUBLE_EQ(estimate.estimated_betti, 0.0);
  EXPECT_EQ(estimate.rounded_betti, 0u);
}

TEST(Estimator, MorePrecisionQubitsReduceBias) {
  // exact p(0) decreases toward β/2^q as t grows (ghost leakage shrinks).
  EstimatorOptions options;
  options.shots = 1;
  options.delta = 6.0;
  double previous = 1.0;
  for (std::size_t t = 1; t <= 8; ++t) {
    options.precision_qubits = t;
    const auto estimate =
        estimate_betti_from_laplacian(paper_delta1(), options);
    EXPECT_LE(estimate.exact_zero_probability, previous + 1e-12);
    previous = estimate.exact_zero_probability;
  }
  EXPECT_NEAR(previous, 1.0 / 8.0, 0.01);
}

TEST(Estimator, SeedReproducibility) {
  EstimatorOptions options;
  options.precision_qubits = 4;
  options.shots = 1000;
  options.seed = 777;
  const auto a = estimate_betti_from_laplacian(paper_delta1(), options);
  const auto b = estimate_betti_from_laplacian(paper_delta1(), options);
  EXPECT_EQ(a.zero_counts, b.zero_counts);
  options.seed = 778;
  const auto c = estimate_betti_from_laplacian(paper_delta1(), options);
  // Different seed almost surely differs on 1000 shots.
  EXPECT_NE(a.zero_counts, c.zero_counts);
}

TEST(Estimator, InvalidOptionsThrow) {
  EstimatorOptions options;
  options.shots = 0;
  EXPECT_THROW(estimate_betti_from_laplacian(paper_delta1(), options), Error);
  options.shots = 10;
  options.precision_qubits = 0;
  EXPECT_THROW(estimate_betti_from_laplacian(paper_delta1(), options), Error);
}

TEST(Estimator, NoiseDegradesAccuracy) {
  EstimatorOptions clean;
  clean.backend = EstimatorBackend::kCircuitTrotter;
  clean.precision_qubits = 2;
  clean.shots = 300;
  clean.delta = 6.0;
  clean.trotter = {2, 1};
  RealMatrix small{{2.0, -1.0}, {-1.0, 2.0}};

  EstimatorOptions noisy = clean;
  noisy.noise = NoiseModel{0.02, 0.02};
  const auto clean_estimate = estimate_betti_from_laplacian(small, clean);
  const auto noisy_estimate = estimate_betti_from_laplacian(small, noisy);
  // The noiseless run tracks the exact probability tightly; the noisy one
  // deviates more in expectation.  Use a generous margin to stay flake-free.
  const double clean_err = std::abs(clean_estimate.zero_probability -
                                    clean_estimate.exact_zero_probability);
  EXPECT_LT(clean_err, 0.2);
  EXPECT_LE(noisy_estimate.zero_probability, 1.0);
}

class EstimatorOnRandomComplexes
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorOnRandomComplexes, HighResourceEstimateMatchesClassical) {
  // With 10 precision qubits and plenty of shots, the rounded estimate
  // equals the classical Betti number on random complexes (the paper's
  // "error reduces to zero given enough resources" claim).
  Rng rng(GetParam() * 13 + 5);
  RandomComplexOptions complex_options;
  complex_options.num_vertices = 7;
  complex_options.max_dimension = 2;
  const auto complex = random_flag_complex(complex_options, rng);
  if (complex.count(1) == 0) GTEST_SKIP() << "edgeless complex";

  EstimatorOptions options;
  options.precision_qubits = 10;
  options.shots = 200000;
  options.seed = GetParam();
  const auto estimate = estimate_betti(complex, 1, options);
  EXPECT_EQ(estimate.rounded_betti, betti_number(complex, 1))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorOnRandomComplexes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace qtda
