// Tests for linalg/sparse_matrix.hpp.
#include "linalg/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/matrix_ops.hpp"

namespace qtda {
namespace {

TEST(SparseMatrix, EmptyMatrix) {
  SparseMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nonzeros(), 0u);
  const auto y = m.multiply(RealVector(4, 1.0));
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SparseMatrix, FromTripletsDense) {
  const auto m = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  const auto d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
}

TEST(SparseMatrix, DuplicateTripletsAreSummed) {
  const auto m =
      SparseMatrix::from_triplets(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_DOUBLE_EQ(m.to_dense()(0, 0), 3.5);
  EXPECT_EQ(m.nonzeros(), 1u);
}

TEST(SparseMatrix, CancellingDuplicatesAreDropped) {
  const auto m =
      SparseMatrix::from_triplets(1, 1, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(m.nonzeros(), 0u);
}

TEST(SparseMatrix, OutOfRangeTripletThrows) {
  EXPECT_THROW(SparseMatrix::from_triplets(1, 1, {{0, 1, 1.0}}), Error);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(5);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 30; ++i) {
    triplets.push_back({rng.uniform_index(7), rng.uniform_index(9),
                        rng.uniform(-2.0, 2.0)});
  }
  const auto sparse = SparseMatrix::from_triplets(7, 9, triplets);
  const auto dense = sparse.to_dense();
  RealVector x(9);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const auto ys = sparse.multiply(x);
  const auto yd = matvec(dense, x);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrix, MultiplyTransposedMatchesDense) {
  Rng rng(6);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 25; ++i) {
    triplets.push_back({rng.uniform_index(5), rng.uniform_index(6),
                        rng.uniform(-2.0, 2.0)});
  }
  const auto sparse = SparseMatrix::from_triplets(5, 6, triplets);
  RealVector x(5);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const auto ys = sparse.multiply_transposed(x);
  const auto yd = matvec(transpose(sparse.to_dense()), x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrix, GramMatchesDense) {
  Rng rng(7);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 20; ++i) {
    triplets.push_back({rng.uniform_index(6), rng.uniform_index(4),
                        rng.uniform(-1.0, 1.0)});
  }
  const auto sparse = SparseMatrix::from_triplets(6, 4, triplets);
  const auto dense = sparse.to_dense();
  const auto gram_sparse = sparse.gram();
  const auto gram_dense = matmul(transpose(dense), dense);
  EXPECT_LT(max_abs_diff(gram_sparse, gram_dense), 1e-12);
}

TEST(SparseMatrix, OuterGramMatchesDense) {
  Rng rng(8);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 20; ++i) {
    triplets.push_back({rng.uniform_index(4), rng.uniform_index(6),
                        rng.uniform(-1.0, 1.0)});
  }
  const auto sparse = SparseMatrix::from_triplets(4, 6, triplets);
  const auto dense = sparse.to_dense();
  const auto outer_sparse = sparse.outer_gram();
  const auto outer_dense = matmul(dense, transpose(dense));
  EXPECT_LT(max_abs_diff(outer_sparse, outer_dense), 1e-12);
}

TEST(SparseMatrix, TransposedRoundTrip) {
  const auto m = SparseMatrix::from_triplets(
      2, 3, {{0, 2, 1.0}, {1, 0, -1.0}, {1, 2, 2.0}});
  const auto tt = m.transposed().transposed();
  EXPECT_LT(max_abs_diff(m.to_dense(), tt.to_dense()), 1e-15);
  EXPECT_EQ(m.transposed().rows(), 3u);
  EXPECT_EQ(m.transposed().cols(), 2u);
}

TEST(SparseMatrix, FromDenseStoresNonzerosAndRoundTrips) {
  // Rectangular, with zeros of both signs that must not be stored.
  const RealMatrix dense{{0.0, 1.5, -0.0, 0.0},
                         {-2.0, 0.0, 0.0, 1.0 / 3.0},
                         {0.0, 0.0, 0.0, 0.0}};
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  EXPECT_EQ(sparse.rows(), 3u);
  EXPECT_EQ(sparse.cols(), 4u);
  EXPECT_EQ(sparse.nonzeros(), 3u);
  EXPECT_EQ(sparse.row_offsets(), (std::vector<std::size_t>{0, 1, 3, 3}));
  EXPECT_EQ(sparse.col_indices(), (std::vector<std::size_t>{1, 0, 3}));
  const RealMatrix back = sparse.to_dense();
  ASSERT_EQ(back.rows(), dense.rows());
  ASSERT_EQ(back.cols(), dense.cols());
  for (std::size_t i = 0; i < dense.rows(); ++i)
    for (std::size_t j = 0; j < dense.cols(); ++j)
      EXPECT_EQ(back(i, j), dense(i, j)) << "at (" << i << ',' << j << ')';
  EXPECT_EQ(SparseMatrix::from_dense(RealMatrix(2, 5)).nonzeros(), 0u);
}

TEST(SparseMatrix, ShapeMismatchThrows) {
  SparseMatrix m(2, 3);
  EXPECT_THROW(m.multiply(RealVector(2, 0.0)), Error);
  EXPECT_THROW(m.multiply_transposed(RealVector(3, 0.0)), Error);
}

}  // namespace
}  // namespace qtda
