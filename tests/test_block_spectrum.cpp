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
        const ScaledHamiltonian scaled =
            rescale_laplacian(pad_laplacian(laplacian, scheme));
        const RealVector explicit_spectrum =
            symmetric_eigenvalues(scaled.matrix);
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

}  // namespace
}  // namespace qtda
