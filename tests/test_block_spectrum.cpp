// Property test for scaled_padded_spectrum (core/scaling.hpp): the spectrum
// of the padded, rescaled Hamiltonian taken from the |S_k|×|S_k| block alone
// equals the eigenvalues of the explicitly padded matrix, and every consumer
// of the exact p(0) reads the same value from it.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.hpp"
#include "core/analysis.hpp"
#include "core/analytic_qpe.hpp"
#include "core/betti_estimator.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "quantum/types.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/point_cloud.hpp"
#include "topology/random_complex.hpp"
#include "topology/rips.hpp"

namespace qtda {
namespace {

/// Seeded Rips complexes of uniform points in the unit square.  The point
/// counts put |S_0| in every 2^q band for q = 1..8; ε targets a mean degree
/// of 1–6 so |S_1| and |S_2| stay small enough to land there too.
std::vector<SimplicialComplex> rips_corpus() {
  const std::size_t point_counts[] = {2,  3,  4,  6,  9,   12,  17,
                                      24, 33, 48, 65, 96,  129, 180, 256};
  std::vector<SimplicialComplex> corpus;
  std::uint64_t seed = 1;
  for (std::size_t n : point_counts) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      Rng rng(seed++);
      const double degree = rng.uniform(1.0, 6.0);
      const double epsilon =
          std::sqrt(degree / (kPi * static_cast<double>(n)));
      corpus.push_back(
          rips_complex(PointCloud(random_point_cloud(n, 2, rng)), epsilon, 3));
    }
  }
  return corpus;
}

TEST(BlockSpectrum, MatchesExplicitPaddingAndEveryExactP0Agrees) {
  std::set<std::size_t> qubits_seen;
  std::set<int> k_seen;
  std::size_t cases = 0;
  std::size_t precision = 1;
  for (const SimplicialComplex& complex : rips_corpus()) {
    for (int k = 0; k <= 2; ++k) {
      const std::size_t size = complex.count(k);
      if (size == 0 || size > 256) continue;
      const RealMatrix laplacian = combinatorial_laplacian(complex, k);
      EXPECT_EQ(count_zero_eigenvalues(laplacian), betti_number(complex, k))
          << "k = " << k << ", |S_k| = " << size;
      for (PaddingScheme scheme : {PaddingScheme::kIdentityHalfLambdaMax,
                                   PaddingScheme::kZero}) {
        SCOPED_TRACE(::testing::Message()
                     << "case " << cases << ": k = " << k
                     << ", |S_k| = " << size << ", zero padding = "
                     << (scheme == PaddingScheme::kZero));
        const SparseScaledHamiltonian scaled =
            rescale_laplacian_sparse(pad_laplacian_sparse(
                SparseMatrix::from_dense(laplacian), scheme));
        const RealVector explicit_spectrum =
            symmetric_eigenvalues(scaled.matrix.to_dense());
        const RealVector block_spectrum =
            scaled_padded_spectrum(laplacian, scaled.num_qubits,
                                   scaled.lambda_max, scaled.scale, scheme);
        ASSERT_EQ(block_spectrum.size(), explicit_spectrum.size());
        for (std::size_t j = 0; j < block_spectrum.size(); ++j)
          EXPECT_NEAR(block_spectrum[j], explicit_spectrum[j], 1e-12);

        precision = precision % 4 + 1;  // cycle t through 1..4
        const double reference =
            analytic_zero_probability(explicit_spectrum, precision);
        EstimatorOptions options;
        options.precision_qubits = precision;
        options.padding = scheme;
        options.shots = 64;
        options.backend = EstimatorBackend::kAnalytic;
        EXPECT_NEAR(estimate_betti_from_laplacian(laplacian, options)
                        .exact_zero_probability,
                    reference, 1e-12);
        options.backend = EstimatorBackend::kCircuitSparse;
        options.mixed_state = MixedStateMode::kSampledBasis;
        EXPECT_NEAR(compile_betti_estimate(
                        sparse_combinatorial_laplacian(complex, k), options)
                        .exact_zero_probability,
                    reference, 1e-12);
        EXPECT_NEAR(analyze_estimator_error(laplacian, precision, 0.0, scheme)
                        .exact_zero_probability,
                    reference, 1e-12);
        qubits_seen.insert(scaled.num_qubits);
        k_seen.insert(k);
        ++cases;
      }
    }
  }
  for (std::size_t q = 1; q <= 8; ++q)
    EXPECT_EQ(qubits_seen.count(q), 1u) << "no case with q = " << q;
  EXPECT_EQ(k_seen.size(), 3u);
  EXPECT_GE(cases, 60u);
}

/// Path-graph (vertex) Laplacian on n vertices: connected, so β_0 = 1.
RealMatrix path_graph_laplacian(std::size_t n) {
  RealMatrix laplacian(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    laplacian(i, i) += 1.0;
    laplacian(i + 1, i + 1) += 1.0;
    laplacian(i, i + 1) = -1.0;
    laplacian(i + 1, i) = -1.0;
  }
  return laplacian;
}

// The analytic backend and the error analysis read q, λ̃max and the scale
// from |S_k| and the Gershgorin bound instead of padding: one row past a
// power of two doubles the padded dimension, and the results must still be
// those of the explicitly padded, rescaled matrix.
TEST(BlockSpectrum, AnalyticPathsJustAboveAPowerOfTwoNeedNoPaddedMatrix) {
  const RealMatrix laplacian = path_graph_laplacian(129);
  for (PaddingScheme scheme :
       {PaddingScheme::kIdentityHalfLambdaMax, PaddingScheme::kZero}) {
    const SparseScaledHamiltonian scaled = rescale_laplacian_sparse(
        pad_laplacian_sparse(SparseMatrix::from_dense(laplacian), scheme));
    ASSERT_EQ(scaled.num_qubits, 8u);
    const RealVector explicit_spectrum =
        symmetric_eigenvalues(scaled.matrix.to_dense());
    const std::size_t precision = 3;
    const double reference =
        analytic_zero_probability(explicit_spectrum, precision);

    EstimatorOptions options;
    options.precision_qubits = precision;
    options.padding = scheme;
    options.shots = 64;
    options.backend = EstimatorBackend::kAnalytic;
    const BettiEstimate estimate =
        estimate_betti_from_laplacian(laplacian, options);
    EXPECT_EQ(estimate.system_qubits, scaled.num_qubits);
    EXPECT_EQ(estimate.lambda_max, scaled.lambda_max);
    EXPECT_NEAR(estimate.exact_zero_probability, reference, 1e-12);

    const EstimatorErrorAnalysis analysis =
        analyze_estimator_error(laplacian, precision, 0.0, scheme);
    EXPECT_EQ(analysis.system_qubits, scaled.num_qubits);
    EXPECT_NEAR(analysis.exact_zero_probability, reference, 1e-12);
    // The zero scheme adds 2^q − |S_k| = 127 ghost kernel vectors.
    EXPECT_EQ(analysis.kernel_dimension,
              scheme == PaddingScheme::kZero ? 128u : 1u);
  }
  // padding_shape's symmetry check still guards both entry points.
  RealMatrix asymmetric = path_graph_laplacian(5);
  asymmetric(0, 1) = -0.5;
  EstimatorOptions options;
  options.backend = EstimatorBackend::kAnalytic;
  EXPECT_THROW(estimate_betti_from_laplacian(asymmetric, options), Error);
  EXPECT_THROW(analyze_estimator_error(asymmetric, 2), Error);
}

}  // namespace
}  // namespace qtda
