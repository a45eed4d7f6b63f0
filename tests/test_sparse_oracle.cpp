// Property tests for the sparse-oracle QPE path: kCircuitSparse must
// reproduce the dense kCircuitExact backend — at the level of the full QPE
// outcome distribution and of the resulting Betti estimates — on random
// complexes, without ever forming a dense oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/betti_estimator.hpp"
#include "quantum/executor.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

SimplicialComplex sample_complex(std::uint64_t seed, std::size_t vertices) {
  Rng rng(seed * 6151 + 11);
  RandomComplexOptions options;
  options.num_vertices = vertices;
  options.max_dimension = 2;
  for (;;) {
    const auto complex = random_flag_complex(options, rng);
    if (complex.count(1) > 0) return complex;
  }
}

class SparseOracleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SparseOracleProperty, QpeDistributionMatchesDenseOracle) {
  const auto complex = sample_complex(GetParam(), 8);
  const RealMatrix laplacian = combinatorial_laplacian(complex, 1);

  EstimatorOptions options;
  options.precision_qubits = 3;
  options.delta = 6.0;
  options.backend = EstimatorBackend::kCircuitExact;
  const Circuit dense_circuit = build_qtda_circuit(laplacian, options);
  options.backend = EstimatorBackend::kCircuitSparse;
  const Circuit sparse_circuit = build_qtda_circuit(laplacian, options);
  ASSERT_EQ(dense_circuit.num_qubits(), sparse_circuit.num_qubits());

  // Same register, same purification prep, same network: the full
  // precision-register distributions must agree to solver precision.
  const Statevector dense_state = run_circuit(dense_circuit);
  const Statevector sparse_state = run_circuit(sparse_circuit);
  const std::vector<std::size_t> measured = {0, 1, 2};
  const auto dense_marginal = dense_state.marginal_probabilities(measured);
  const auto sparse_marginal = sparse_state.marginal_probabilities(measured);
  ASSERT_EQ(dense_marginal.size(), sparse_marginal.size());
  for (std::size_t m = 0; m < dense_marginal.size(); ++m)
    EXPECT_NEAR(dense_marginal[m], sparse_marginal[m], 1e-9)
        << "outcome " << m;
}

TEST_P(SparseOracleProperty, BettiEstimateMatchesExactBackend) {
  const auto complex = sample_complex(GetParam(), 8);

  EstimatorOptions exact;
  exact.backend = EstimatorBackend::kCircuitExact;
  exact.precision_qubits = 4;
  exact.shots = 20000;
  exact.seed = GetParam();
  EstimatorOptions sparse = exact;
  sparse.backend = EstimatorBackend::kCircuitSparse;

  for (auto mode :
       {MixedStateMode::kPurification, MixedStateMode::kSampledBasis}) {
    exact.mixed_state = sparse.mixed_state = mode;
    const BettiEstimate e = estimate_betti(complex, 1, exact);
    const BettiEstimate s = estimate_betti(complex, 1, sparse);
    // Same analytic reference and — because the Chebyshev action reproduces
    // the dense unitary to ~1e-12 — the same multinomial draws.
    EXPECT_NEAR(e.exact_zero_probability, s.exact_zero_probability, 1e-9);
    EXPECT_NEAR(e.zero_probability, s.zero_probability, 0.02);
    EXPECT_NEAR(e.estimated_betti, s.estimated_betti,
                0.02 * static_cast<double>(std::uint64_t{1}
                                           << e.system_qubits));
    EXPECT_EQ(s.total_qubits, e.total_qubits);
    EXPECT_GT(s.circuit_gates, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseOracleProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SparseOracle, HighResourceEstimateMatchesClassicalBetti) {
  const auto complex = sample_complex(99, 7);
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 8;
  options.shots = 200000;
  options.mixed_state = MixedStateMode::kSampledBasis;
  const BettiEstimate estimate = estimate_betti(complex, 1, options);
  EXPECT_EQ(estimate.rounded_betti, betti_number(complex, 1));
}

TEST(SparseOracle, SparseEntryPointSkipsDenseReferenceWhenAsked) {
  // 4097 rows pad to 2^13 > 4096: the circuit backends skip the diagnostic
  // eigensolve of the |S_k|×|S_k| block (O(|S_k|³)) and compile the plan
  // alone.  Compile only: the skipped eigensolve is what would be slow.
  const std::size_t n = 4097;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    triplets.push_back({i, i, 1.0});
    triplets.push_back({i + 1, i + 1, 1.0});
    triplets.push_back({i, i + 1, -1.0});
    triplets.push_back({i + 1, i, -1.0});
  }
  const SparseMatrix path =
      SparseMatrix::from_triplets(n, n, std::move(triplets));
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.mixed_state = MixedStateMode::kSampledBasis;
  options.precision_qubits = 1;
  const CompiledEstimate compiled = compile_betti_estimate(path, options);
  EXPECT_EQ(compiled.system_qubits, 13u);
  EXPECT_EQ(compiled.exact_zero_probability, 0.0);
  ASSERT_NE(compiled.plan, nullptr);
  EXPECT_EQ(compiled.plan->num_qubits(), 14u);
}

TEST(SparseOracle, SparseEntryPointServesOtherBackends) {
  const auto complex = sample_complex(4, 7);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  EstimatorOptions options;  // defaults to kAnalytic
  options.precision_qubits = 8;
  options.shots = 100000;
  const BettiEstimate via_sparse =
      estimate_betti_from_sparse_laplacian(laplacian, options);
  const BettiEstimate via_dense =
      estimate_betti_from_laplacian(laplacian.to_dense(), options);
  EXPECT_EQ(via_sparse.zero_counts, via_dense.zero_counts);
}

}  // namespace
}  // namespace qtda
