// Tests for linalg/symmetric_eigen.hpp and linalg/gershgorin.hpp.
#include "linalg/symmetric_eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/matrix_ops.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

RealMatrix random_symmetric(std::size_t n, Rng& rng) {
  RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.uniform(-2.0, 2.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

TEST(SymmetricEigen, DiagonalMatrix) {
  RealMatrix d(3, 3);
  d(0, 0) = 3.0;
  d(1, 1) = -1.0;
  d(2, 2) = 2.0;
  const auto result = symmetric_eigen(d);
  ASSERT_EQ(result.values.size(), 3u);
  EXPECT_NEAR(result.values[0], -1.0, 1e-12);
  EXPECT_NEAR(result.values[1], 2.0, 1e-12);
  EXPECT_NEAR(result.values[2], 3.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto values = symmetric_eigenvalues(RealMatrix{{2, 1}, {1, 2}});
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, OneByOne) {
  const auto values = symmetric_eigenvalues(RealMatrix{{5.0}});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0], 5.0);
}

TEST(SymmetricEigen, NonSymmetricThrows) {
  EXPECT_THROW(symmetric_eigen(RealMatrix{{1, 2}, {3, 4}}), Error);
  EXPECT_THROW(symmetric_eigen(RealMatrix(2, 3)), Error);
}

TEST(SymmetricEigen, NonConvergenceThrows) {
  // A NaN passes the symmetry check but never lets QL converge.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(symmetric_eigenvalues(RealMatrix{{nan, 1}, {1, 0}}), Error);
  EXPECT_THROW(symmetric_eigen(RealMatrix{{nan, 1}, {1, 0}}), Error);
}

/// Max-entry residual of A·V − V·diag(λ) and of VᵀV − I, and the ascending
/// order — the properties every decomposition below must satisfy.
void expect_decomposition(const RealMatrix& a,
                          const SymmetricEigenResult& result,
                          double tolerance) {
  const std::size_t n = a.rows();
  ASSERT_EQ(result.values.size(), n);
  EXPECT_TRUE(std::is_sorted(result.values.begin(), result.values.end()));
  const RealMatrix av = matmul(a, result.vectors);
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double r = av(i, j) - result.values[j] * result.vectors(i, j);
      residual = std::max(residual, std::abs(r));
    }
  EXPECT_LE(residual, tolerance);
  const RealMatrix vtv = matmul(transpose(result.vectors), result.vectors);
  EXPECT_LE(max_abs_diff(vtv, RealMatrix::identity(n)), 1e-12);
}

TEST(SymmetricEigen, ZeroMatrix) {
  const RealMatrix zero(6, 6);
  const auto result = symmetric_eigen(zero);
  for (double v : result.values) EXPECT_EQ(v, 0.0);
  expect_decomposition(zero, result, 0.0);
}

TEST(SymmetricEigen, MultipleOfIdentity) {
  // The padding block (λ̃max/2)·I: one eigenvalue, exact, at any size.
  RealMatrix a(40, 40);
  for (std::size_t i = 0; i < 40; ++i) a(i, i) = 2.75;
  const auto result = symmetric_eigen(a);
  for (double v : result.values) EXPECT_EQ(v, 2.75);
  expect_decomposition(a, result, 1e-15);
}

TEST(SymmetricEigen, UnsortedDiagonalComesBackAscending) {
  const RealVector diagonal{3.0, -1.0, 7.0, 0.0, 2.0, -4.5};
  RealMatrix a(diagonal.size(), diagonal.size());
  for (std::size_t i = 0; i < diagonal.size(); ++i) a(i, i) = diagonal[i];
  const auto result = symmetric_eigen(a);
  RealVector sorted = diagonal;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(result.values, sorted);
  EXPECT_EQ(symmetric_eigenvalues(a), sorted);
  expect_decomposition(a, result, 1e-15);
}

TEST(SymmetricEigen, TridiagonalInput) {
  // tridiag(−1, 2, −1) of size n: λ_j = 2 − 2cos(πj/(n+1)), j = 1..n.
  const std::size_t n = 50;
  RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) a(i, i + 1) = a(i + 1, i) = -1.0;
  }
  const auto result = symmetric_eigen(a);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(result.values[j],
                2.0 - 2.0 * std::cos(kPi * static_cast<double>(j + 1) /
                                     static_cast<double>(n + 1)),
                1e-13);
  expect_decomposition(a, result, 1e-13);
}

TEST(SymmetricEigen, EigenvaluesRepeatedAcrossBlocks) {
  // B ⊕ B ⊕ 3·I with spec(B) = {1, 3, 4}: 3 appears four times, 1 and 4
  // twice each.
  const RealMatrix b{{2, 1, 0}, {1, 2, 0}, {0, 0, 4}};
  RealMatrix a(8, 8);
  for (std::size_t block = 0; block < 2; ++block)
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j)
        a(3 * block + i, 3 * block + j) = b(i, j);
  a(6, 6) = a(7, 7) = 3.0;
  const auto result = symmetric_eigen(a);
  const RealVector expected{1, 1, 3, 3, 3, 3, 4, 4};
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_NEAR(result.values[j], expected[j], 1e-14);
  expect_decomposition(a, result, 1e-14);
}

TEST(SymmetricEigen, GradedEntries) {
  // a_ij = g_i·g_j·r_ij with g_i² from 1e-10 to 1e3: the absolute error
  // stays near ε‖A‖ even though the small entries sit 13 decades down.
  const std::size_t n = 24;
  const auto g = [n](std::size_t i) {
    const double exponent =
        -10.0 + 13.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    return std::pow(10.0, exponent / 2.0);
  };
  Rng rng(17);
  RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      a(i, j) = a(j, i) = g(i) * g(j) * (i == j ? 1.0 : rng.uniform(-0.5, 0.5));
  EXPECT_DOUBLE_EQ(a(0, 0), 1e-10);
  EXPECT_DOUBLE_EQ(a(n - 1, n - 1), 1e3);
  const double norm = frobenius_norm(a);
  const auto result = symmetric_eigen(a);
  expect_decomposition(a, result, 1e-14 * norm);
  double sum = 0.0;
  for (double v : result.values) sum += v;
  EXPECT_NEAR(sum, trace(a), 1e-13 * norm);
  const RealVector values = symmetric_eigenvalues(a);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(values[j], result.values[j], 1e-14 * norm);
}

class CycleGraphSpectrum : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycleGraphSpectrum, MatchesClosedForm) {
  // Laplacian of the cycle C_n: λ_j = 2 − 2cos(2πj/n), j = 0..n−1, each
  // nonzero value twice (degenerate pairs).
  const std::size_t n = GetParam();
  RealMatrix laplacian(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    laplacian(i, i) = 2.0;
    laplacian(i, next) -= 1.0;
    laplacian(next, i) -= 1.0;
  }
  RealVector expected(n);
  for (std::size_t j = 0; j < n; ++j)
    expected[j] = 2.0 - 2.0 * std::cos(2.0 * kPi * static_cast<double>(j) /
                                       static_cast<double>(n));
  std::sort(expected.begin(), expected.end());
  const RealVector values = symmetric_eigenvalues(laplacian);
  ASSERT_EQ(values.size(), n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(values[j], expected[j], 1e-12) << "j = " << j;
  EXPECT_EQ(count_zero_eigenvalues(laplacian), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleGraphSpectrum,
                         ::testing::Values(3, 4, 5, 16, 63, 128, 200, 256,
                                           257));

class EigenReconstruction : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenReconstruction, FactorizationHolds) {
  Rng rng(GetParam());
  const std::size_t n = GetParam();
  const RealMatrix a = random_symmetric(n, rng);
  const auto result = symmetric_eigen(a);
  // A·v_j = λ_j·v_j for each column.
  for (std::size_t j = 0; j < n; ++j) {
    RealVector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = result.vectors(i, j);
    const auto av = matvec(a, v);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av[i], result.values[j] * v[i], 1e-8);
  }
  // Eigenvalues ascending.
  EXPECT_TRUE(std::is_sorted(result.values.begin(), result.values.end()));
  // V orthonormal.
  const auto vtv = matmul(transpose(result.vectors), result.vectors);
  EXPECT_LT(max_abs_diff(vtv, RealMatrix::identity(n)), 1e-9);
  // Trace preserved.
  double eigen_sum = 0.0;
  for (double v : result.values) eigen_sum += v;
  EXPECT_NEAR(eigen_sum, trace(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenReconstruction,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64, 128, 257));

TEST(SymmetricEigen, PositiveSemidefiniteGram) {
  Rng rng(99);
  RealMatrix b(6, 4);
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = rng.uniform(-1.0, 1.0);
  const auto gram = matmul(transpose(b), b);
  const auto values = symmetric_eigenvalues(gram);
  for (double v : values) EXPECT_GE(v, -1e-10);
}

TEST(CountZeroEigenvalues, RankDeficientMatrix) {
  // Projector onto span{(1,1)/√2} has eigenvalues {0, 1}.
  RealMatrix p{{0.5, 0.5}, {0.5, 0.5}};
  EXPECT_EQ(count_zero_eigenvalues(p), 1u);
}

TEST(CountZeroEigenvalues, ZeroMatrix) {
  EXPECT_EQ(count_zero_eigenvalues(RealMatrix(4, 4)), 4u);
}

TEST(CountZeroEigenvalues, FullRankMatrix) {
  EXPECT_EQ(count_zero_eigenvalues(RealMatrix::identity(5)), 0u);
}

TEST(Gershgorin, BoundsContainSpectrum) {
  Rng rng(101);
  for (int rep = 0; rep < 20; ++rep) {
    const RealMatrix a = random_symmetric(8, rng);
    const auto values = symmetric_eigenvalues(a);
    EXPECT_LE(values.back(), gershgorin_max(a) + 1e-10);
    EXPECT_GE(values.front(), gershgorin_min(a) - 1e-10);
  }
}

TEST(Gershgorin, DiagonalIsExact) {
  RealMatrix d(2, 2);
  d(0, 0) = -3.0;
  d(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(gershgorin_max(d), 7.0);
  EXPECT_DOUBLE_EQ(gershgorin_min(d), -3.0);
}

TEST(Gershgorin, WorkedExampleLambdaMax) {
  // The paper's Δ1 (Eq. 17) has Gershgorin bound 6 (row 4: 2 + |−1|+|−1|+1+|−1|).
  RealMatrix delta1{{3, 0, 0, 0, 0, 0},  {0, 3, 0, -1, -1, 0},
                    {0, 0, 3, -1, -1, 0}, {0, -1, -1, 2, 1, -1},
                    {0, -1, -1, 1, 2, 1}, {0, 0, 0, -1, 1, 2}};
  EXPECT_DOUBLE_EQ(gershgorin_max(delta1), 6.0);
}

TEST(Gershgorin, DiscsCount) {
  EXPECT_EQ(gershgorin_discs(RealMatrix::identity(4)).size(), 4u);
  EXPECT_THROW(gershgorin_discs(RealMatrix(2, 3)), Error);
}

}  // namespace
}  // namespace qtda
