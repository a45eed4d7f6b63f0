// Tests for core/padding.hpp and core/scaling.hpp.  The padding runs on CSR;
// checks that need the dense padded H read it through to_dense().
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

RealMatrix paper_delta1() {
  return RealMatrix{{3, 0, 0, 0, 0, 0},  {0, 3, 0, -1, -1, 0},
                    {0, 0, 3, -1, -1, 0}, {0, -1, -1, 2, 1, -1},
                    {0, -1, -1, 1, 2, 1}, {0, 0, 0, -1, 1, 2}};
}

SparsePaddedLaplacian pad(
    const RealMatrix& laplacian,
    PaddingScheme scheme = PaddingScheme::kIdentityHalfLambdaMax) {
  return pad_laplacian_sparse(SparseMatrix::from_dense(laplacian), scheme);
}

TEST(Padding, PadsToNextPowerOfTwo) {
  const auto padded = pad(paper_delta1());
  EXPECT_EQ(padded.num_qubits, 3u);
  EXPECT_EQ(padded.matrix.rows(), 8u);
  EXPECT_EQ(padded.original_dim, 6u);
  EXPECT_DOUBLE_EQ(padded.lambda_max, 6.0);
}

TEST(Padding, PaperEq18Exactly) {
  // Eq. (18): original block preserved, padding block (λmax/2)·I = 3·I.
  const RealMatrix padded = pad(paper_delta1()).matrix.to_dense();
  const auto original = paper_delta1();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_DOUBLE_EQ(padded(i, j), original(i, j));
  EXPECT_DOUBLE_EQ(padded(6, 6), 3.0);
  EXPECT_DOUBLE_EQ(padded(7, 7), 3.0);
  EXPECT_DOUBLE_EQ(padded(6, 7), 0.0);
  EXPECT_DOUBLE_EQ(padded(5, 6), 0.0);
}

TEST(Padding, PowerOfTwoInputGainsNoPadding) {
  const auto padded = pad(RealMatrix::identity(4));
  EXPECT_EQ(padded.matrix.rows(), 4u);
  EXPECT_EQ(padded.num_qubits, 2u);
}

TEST(Padding, OneByOnePadsToOneQubit) {
  const auto padded = pad(RealMatrix{{2.0}});
  EXPECT_EQ(padded.num_qubits, 1u);
  EXPECT_EQ(padded.matrix.rows(), 2u);
  EXPECT_DOUBLE_EQ(padded.matrix.to_dense()(1, 1), 1.0);  // λmax/2 = 1
}

TEST(Padding, IdentitySchemeAddsNoKernel) {
  // The padding block must not contribute zero eigenvalues.
  const auto padded = pad(paper_delta1());
  const std::size_t kernel =
      count_zero_eigenvalues(padded.matrix.to_dense());
  const std::size_t original_kernel =
      count_zero_eigenvalues(paper_delta1());
  EXPECT_EQ(kernel, original_kernel);
  EXPECT_EQ(kernel, 1u);  // β1 of the worked example
}

TEST(Padding, ZeroSchemeInflatesKernel) {
  // The failure mode the paper warns about: zero padding adds
  // 2^q − |S_k| ghost zeros.
  const auto padded = pad(paper_delta1(), PaddingScheme::kZero);
  EXPECT_EQ(count_zero_eigenvalues(padded.matrix.to_dense()), 1u + 2u);
}

TEST(Padding, ZeroLaplacianUsesFloor) {
  // Fully disconnected complex: Δ = 0.  λmax floors at 1 so the padding
  // block (0.5·I) stays separated from the kernel.
  const auto padded = pad(RealMatrix(3, 3));
  EXPECT_DOUBLE_EQ(padded.lambda_max, 1.0);
  EXPECT_DOUBLE_EQ(padded.matrix.to_dense()(3, 3), 0.5);
  EXPECT_EQ(count_zero_eigenvalues(padded.matrix.to_dense()), 3u);
}

TEST(Padding, RejectsBadInput) {
  EXPECT_THROW(pad(RealMatrix(2, 3)), Error);
  EXPECT_THROW(pad(RealMatrix{{0, 1}, {2, 0}}), Error);
}

TEST(Scaling, EigenvaluesLandInZeroTwoPi) {
  const auto padded = pad(paper_delta1());
  const auto scaled = rescale_laplacian_sparse(padded);
  const auto values = symmetric_eigenvalues(scaled.matrix.to_dense());
  for (double v : values) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LT(v, kTwoPi);
  }
}

TEST(Scaling, WorkedExampleDeltaEqualsLambdaMax) {
  // Appendix A takes δ = λmax = 6 so H = Δ̃ exactly.
  const auto padded = pad(paper_delta1());
  const auto scaled = rescale_laplacian_sparse(padded, /*delta=*/6.0);
  EXPECT_DOUBLE_EQ(scaled.scale, 1.0);
  const RealMatrix h = scaled.matrix.to_dense();
  const RealMatrix padded_dense = padded.matrix.to_dense();
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_DOUBLE_EQ(h(i, j), padded_dense(i, j));
}

TEST(Scaling, PhaseMapping) {
  const auto padded = pad(paper_delta1());
  const auto scaled = rescale_laplacian_sparse(padded, 6.0);
  EXPECT_DOUBLE_EQ(scaled.eigenvalue_to_phase(0.0), 0.0);
  EXPECT_NEAR(scaled.eigenvalue_to_phase(6.0), 6.0 / kTwoPi, 1e-12);
}

TEST(Scaling, DeltaValidation) {
  const auto padded = pad(paper_delta1());
  EXPECT_THROW(rescale_laplacian_sparse(padded, 0.0), Error);
  EXPECT_THROW(rescale_laplacian_sparse(padded, 7.0), Error);  // > 2π
  EXPECT_NO_THROW(rescale_laplacian_sparse(padded, kTwoPi));
}

TEST(Scaling, DefaultDeltaIsJustBelowTwoPi) {
  EXPECT_LT(default_delta(), kTwoPi);
  EXPECT_GT(default_delta(), 0.9 * kTwoPi);
}

TEST(Scaling, KernelIsScaleInvariant) {
  const auto padded = pad(paper_delta1());
  const auto scaled = rescale_laplacian_sparse(padded);
  EXPECT_EQ(count_zero_eigenvalues(scaled.matrix.to_dense()),
            count_zero_eigenvalues(padded.matrix.to_dense()));
}

}  // namespace
}  // namespace qtda
