// Tests for core/analytic_qpe.hpp, including circuit-vs-analytic agreement.
#include "core/analytic_qpe.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "quantum/executor.hpp"
#include "quantum/mixed_state.hpp"
#include "quantum/qpe.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

TEST(AnalyticQpe, AllZeroEigenvaluesGiveCertainZero) {
  EXPECT_DOUBLE_EQ(analytic_zero_probability({0.0, 0.0, 0.0}, 4), 1.0);
}

TEST(AnalyticQpe, ExactHalfPhaseNeverHitsZero) {
  // Eigenvalue π corresponds to θ = 1/2, rejected with probability 1.
  EXPECT_NEAR(analytic_zero_probability({kPi}, 3), 0.0, 1e-12);
}

TEST(AnalyticQpe, MixtureAveragesKernels) {
  // {0, π} mixture: (1 + 0)/2.
  EXPECT_NEAR(analytic_zero_probability({0.0, kPi}, 3), 0.5, 1e-12);
}

TEST(AnalyticQpe, DistributionSumsToOne) {
  Rng rng(5);
  RealVector eigenvalues;
  for (int i = 0; i < 7; ++i) eigenvalues.push_back(rng.uniform(0.0, 6.0));
  for (std::size_t t : {1u, 3u, 5u}) {
    const auto dist = analytic_outcome_distribution(eigenvalues, t);
    double total = 0.0;
    for (double p : dist) total += p;
    EXPECT_NEAR(total, 1.0, 1e-10);
    EXPECT_EQ(dist.size(), std::size_t{1} << t);
  }
}

TEST(AnalyticQpe, ZeroBinMatchesDistribution) {
  Rng rng(7);
  RealVector eigenvalues;
  for (int i = 0; i < 5; ++i) eigenvalues.push_back(rng.uniform(0.0, 6.0));
  for (std::size_t t : {2u, 4u}) {
    const auto dist = analytic_outcome_distribution(eigenvalues, t);
    EXPECT_NEAR(dist[0], analytic_zero_probability(eigenvalues, t), 1e-12);
  }
}

TEST(SampleZeroCounts, DeterministicAndBounded) {
  Rng a(9), b(9);
  const auto c1 = sample_zero_counts(0.3, 10000, a);
  const auto c2 = sample_zero_counts(0.3, 10000, b);
  EXPECT_EQ(c1, c2);
  EXPECT_LE(c1, 10000u);
  EXPECT_NEAR(static_cast<double>(c1), 3000.0, 300.0);
}

TEST(SampleZeroCounts, ClampsRoundoff) {
  Rng rng(11);
  EXPECT_EQ(sample_zero_counts(1.0 + 5e-13, 100, rng), 100u);
  EXPECT_EQ(sample_zero_counts(-5e-13, 100, rng), 0u);
}

/// The critical equivalence: the analytic p(0) must equal the exact-circuit
/// QPE zero-probability for the maximally mixed input, for the very padded
/// Laplacians the estimator uses.
class CircuitAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CircuitAgreement, AnalyticEqualsPurifiedCircuit) {
  const std::size_t t = GetParam();
  // Worked-example Laplacian, padded & scaled with δ = λmax.
  RealMatrix delta1{{3, 0, 0, 0, 0, 0},  {0, 3, 0, -1, -1, 0},
                    {0, 0, 3, -1, -1, 0}, {0, -1, -1, 2, 1, -1},
                    {0, -1, -1, 1, 2, 1}, {0, 0, 0, -1, 1, 2}};
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(SparseMatrix::from_dense(delta1)), 6.0);
  const RealMatrix h = scaled.matrix.to_dense();
  const std::size_t q = scaled.num_qubits;

  // Analytic value.
  const double analytic =
      analytic_zero_probability(symmetric_eigenvalues(h), t);

  // Full circuit: purification + QPE with exact controlled powers.
  QpeLayout layout{t, q, q};
  Circuit circuit(layout.total());
  append_mixed_state_preparation(circuit, layout.ancilla_wires(),
                                 layout.system_wires());
  const HamiltonianExponential exponential(h);
  const Circuit qpe = build_qpe_circuit_dense(
      layout,
      [&](std::uint64_t power) {
        return exponential.unitary(static_cast<double>(power));
      });
  circuit.append_circuit(qpe);
  const auto state = run_circuit(circuit);
  const auto marginal = state.marginal_probabilities(layout.precision_wires());

  EXPECT_NEAR(marginal[0], analytic, 1e-8) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(PrecisionQubits, CircuitAgreement,
                         ::testing::Values(1, 2, 3, 4));

TEST(CircuitAgreementFull, WholeDistributionMatches) {
  // Beyond the zero bin: the entire outcome distribution agrees.
  RealMatrix small{{2.0, -1.0}, {-1.0, 2.0}};
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(SparseMatrix::from_dense(small)), 3.0);
  const RealMatrix h = scaled.matrix.to_dense();
  const std::size_t t = 3;
  const auto analytic =
      analytic_outcome_distribution(symmetric_eigenvalues(h), t);

  QpeLayout layout{t, scaled.num_qubits, scaled.num_qubits};
  Circuit circuit(layout.total());
  append_mixed_state_preparation(circuit, layout.ancilla_wires(),
                                 layout.system_wires());
  const HamiltonianExponential exponential(h);
  circuit.append_circuit(build_qpe_circuit_dense(
      layout, [&](std::uint64_t power) {
        return exponential.unitary(static_cast<double>(power));
      }));
  const auto marginal =
      run_circuit(circuit).marginal_probabilities(layout.precision_wires());
  for (std::size_t m = 0; m < analytic.size(); ++m)
    EXPECT_NEAR(marginal[m], analytic[m], 1e-8) << "m=" << m;
}

}  // namespace
}  // namespace qtda
