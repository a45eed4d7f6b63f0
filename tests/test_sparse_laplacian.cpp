// Property tests: the sparse Laplacian chain (CSR builders, Gershgorin,
// padding, rescaling) agrees exactly with the dense reference path on
// random complexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/matrix_ops.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "quantum/types.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

void expect_matrices_equal(const RealMatrix& a, const RealMatrix& b,
                           double tolerance = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(a(i, j), b(i, j), tolerance) << "at (" << i << ',' << j
                                               << ')';
}

class SparseLaplacianProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseLaplacianProperty, SparseBuildersMatchDense) {
  Rng rng(GetParam() * 7919 + 3);
  RandomComplexOptions options;
  options.num_vertices = 9;
  options.max_dimension = 3;
  const auto complex = random_flag_complex(options, rng);
  for (int k = 0; k <= 2; ++k) {
    if (complex.count(k) == 0) continue;
    expect_matrices_equal(sparse_down_laplacian(complex, k).to_dense(),
                          down_laplacian(complex, k));
    expect_matrices_equal(sparse_up_laplacian(complex, k).to_dense(),
                          up_laplacian(complex, k));
    expect_matrices_equal(
        sparse_combinatorial_laplacian(complex, k).to_dense(),
        combinatorial_laplacian(complex, k));
  }
}

TEST_P(SparseLaplacianProperty, SparseGershgorinMatchesDense) {
  Rng rng(GetParam() * 104729 + 17);
  RandomComplexOptions options;
  options.num_vertices = 8;
  options.max_dimension = 2;
  const auto complex = random_flag_complex(options, rng);
  if (complex.count(1) == 0) GTEST_SKIP() << "edgeless complex";
  const SparseMatrix sparse = sparse_combinatorial_laplacian(complex, 1);
  const RealMatrix dense = sparse.to_dense();
  EXPECT_NEAR(gershgorin_max(sparse), gershgorin_max(dense), 1e-12);
  EXPECT_NEAR(gershgorin_min(sparse), gershgorin_min(dense), 1e-12);
}

TEST_P(SparseLaplacianProperty, SparsePaddingAndScalingMatchDense) {
  Rng rng(GetParam() * 1299709 + 29);
  RandomComplexOptions options;
  options.num_vertices = 8;
  options.max_dimension = 2;
  const auto complex = random_flag_complex(options, rng);
  if (complex.count(1) == 0) GTEST_SKIP() << "edgeless complex";
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);

  for (auto scheme :
       {PaddingScheme::kIdentityHalfLambdaMax, PaddingScheme::kZero}) {
    const SparsePaddedLaplacian sp = pad_laplacian_sparse(laplacian, scheme);
    EXPECT_EQ(sp.original_dim, laplacian.rows());
    EXPECT_EQ(std::size_t{1} << sp.num_qubits, sp.matrix.rows());
    EXPECT_DOUBLE_EQ(sp.lambda_max,
                     std::max(gershgorin_max(laplacian.to_dense()), 1.0));
    // Eq. 7: Δ_k in the top-left block, c·I below it (c = λ̃max/2 or 0).
    const RealMatrix block = laplacian.to_dense();
    RealMatrix expected(sp.matrix.rows(), sp.matrix.cols());
    for (std::size_t i = 0; i < expected.rows(); ++i) {
      for (std::size_t j = 0; j < expected.cols(); ++j) {
        if (i < block.rows() && j < block.cols()) expected(i, j) = block(i, j);
      }
      if (i >= block.rows() &&
          scheme == PaddingScheme::kIdentityHalfLambdaMax)
        expected(i, i) = sp.lambda_max / 2.0;
    }
    expect_matrices_equal(sp.matrix.to_dense(), expected);

    const SparseScaledHamiltonian ss = rescale_laplacian_sparse(sp, 6.0);
    EXPECT_DOUBLE_EQ(ss.scale, 6.0 / sp.lambda_max);
    EXPECT_DOUBLE_EQ(ss.eigenvalue_to_phase(2.0), 2.0 * ss.scale / kTwoPi);
    expect_matrices_equal(ss.matrix.to_dense(),
                          scale(sp.matrix.to_dense(), ss.scale));
    // The certified Chebyshev bounds really contain the scaled spectrum
    // (PSD-ness gives the lower bound, Gershgorin+rescale the upper).
    const RealVector eigenvalues = symmetric_eigenvalues(ss.matrix.to_dense());
    EXPECT_GE(eigenvalues.front(), ss.spectrum_min() - 1e-9);
    EXPECT_LE(eigenvalues.back(), ss.spectrum_max() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseLaplacianProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(SparsePadding, AcceptsNearSymmetricLikeDensePath) {
  // A tiny one-sided entry is within the dense is_symmetric tolerance: an
  // entry stored on one side only counts as zero on the other.
  const auto lopsided = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {1, 1, 2.0}, {0, 1, 1e-12}});
  EXPECT_TRUE(is_symmetric(lopsided.to_dense(), 1e-9));
  EXPECT_NO_THROW(pad_laplacian_sparse(lopsided));
  // A genuinely asymmetric matrix still throws.
  const auto skew = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {1, 1, 2.0}, {0, 1, 0.5}});
  EXPECT_THROW(pad_laplacian_sparse(skew), Error);
  // Both halves stored: 1e-12 apart passes, 1e-6 apart throws (the
  // tolerance is 1e-9), whichever row holds the larger value.
  for (const double drift : {1e-12, 1e-6, -1e-6}) {
    const auto mirrored = SparseMatrix::from_triplets(
        3, 3, {{0, 0, 2.0}, {1, 1, 2.0}, {2, 2, 2.0}, {0, 2, -1.0},
               {2, 0, -1.0 + drift}});
    if (std::abs(drift) < 1e-9) {
      EXPECT_NO_THROW(padding_shape(mirrored));
    } else {
      EXPECT_THROW(padding_shape(mirrored), Error) << "drift " << drift;
    }
  }
}

TEST(SparseGramProducts, MatchDenseOnRectangular) {
  Rng rng(71);
  std::vector<Triplet> triplets;
  for (int e = 0; e < 40; ++e)
    triplets.push_back({static_cast<std::size_t>(rng.uniform_index(7)),
                        static_cast<std::size_t>(rng.uniform_index(11)),
                        rng.uniform() * 2.0 - 1.0});
  const auto a = SparseMatrix::from_triplets(7, 11, std::move(triplets));
  expect_matrices_equal(a.gram_sparse().to_dense(), a.gram());
  expect_matrices_equal(a.outer_gram_sparse().to_dense(), a.outer_gram());
}

TEST(SparseAdd, SumsAndCancels) {
  const auto a =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});
  const auto b =
      SparseMatrix::from_triplets(2, 2, {{0, 1, -2.0}, {1, 1, 3.0}});
  const auto c = sparse_add(a, b);
  EXPECT_DOUBLE_EQ(c.to_dense()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.to_dense()(1, 1), 3.0);
  EXPECT_EQ(c.nonzeros(), 2u);  // the (0,1) entries cancelled structurally
  EXPECT_THROW(sparse_add(a, SparseMatrix(3, 2)), Error);
}

TEST(SparseComplexMatvec, MatchesRealPartsSeparately) {
  Rng rng(83);
  std::vector<Triplet> triplets;
  for (int e = 0; e < 30; ++e)
    triplets.push_back({static_cast<std::size_t>(rng.uniform_index(9)),
                        static_cast<std::size_t>(rng.uniform_index(9)),
                        rng.uniform() * 2.0 - 1.0});
  const auto a = SparseMatrix::from_triplets(9, 9, std::move(triplets));
  RealVector re(9), im(9);
  ComplexVector x(9);
  for (std::size_t i = 0; i < 9; ++i) {
    re[i] = rng.uniform();
    im[i] = rng.uniform();
    x[i] = {re[i], im[i]};
  }
  const ComplexVector y = a.multiply(x);
  const RealVector yre = a.multiply(re);
  const RealVector yim = a.multiply(im);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(y[i].real(), yre[i], 1e-12);
    EXPECT_NEAR(y[i].imag(), yim[i], 1e-12);
  }
}

}  // namespace
}  // namespace qtda
