/// \file sparse_matrix.hpp
/// \brief Compressed sparse row matrix for boundary operators.
///
/// Boundary operators ∂_k have exactly k+1 nonzeros per column, so the
/// whole Δ_k = ∂†∂ + ∂∂† chain can stay sparse end to end: symmetric CSR
/// products assemble the Laplacian without densifying, and the CSR arrays
/// feed the matrix-free exp(iθΔ̃) oracle of the sparse QPE path.
/// Dense copies remain available for the small-case eigensolver.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace qtda {

/// One triplet (row, col, value) used during assembly.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// CSR sparse matrix over doubles.
class SparseMatrix {
 public:
  /// Empty rows×cols matrix.
  SparseMatrix(std::size_t rows, std::size_t cols);

  /// Builds from triplets; duplicate (row, col) entries are summed.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  /// CSR copy of a dense matrix; zero entries (either sign) are not stored,
  /// so to_dense() round-trips every nonzero bit for bit.
  static SparseMatrix from_dense(const RealMatrix& dense);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// y = A·x.
  RealVector multiply(const RealVector& x) const;
  /// y = Aᵀ·x.
  RealVector multiply_transposed(const RealVector& x) const;

  /// y = A·x over complex vectors (A is real).  The matrix-free
  /// exponential action runs its own blocked CSR kernel
  /// (simd::csr_spmm_rows) on the arrays below.
  ComplexVector multiply(const ComplexVector& x) const;

  /// Dense Aᵀ·A (size cols×cols).
  RealMatrix gram() const;
  /// Dense A·Aᵀ (size rows×rows).
  RealMatrix outer_gram() const;

  /// Sparse Aᵀ·A (size cols×cols) without densifying.
  SparseMatrix gram_sparse() const;
  /// Sparse A·Aᵀ (size rows×rows) without densifying.
  SparseMatrix outer_gram_sparse() const;

  /// Copy with every stored value multiplied by \p factor.
  SparseMatrix scaled(double factor) const;

  /// Dense copy.
  RealMatrix to_dense() const;

  /// Transposed copy (CSR of Aᵀ).
  SparseMatrix transposed() const;

  /// CSR internals (read-only), exposed for kernels and tests.
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

/// C = A + B (shapes must match); structural zeros produced by cancellation
/// are dropped.
SparseMatrix sparse_add(const SparseMatrix& a, const SparseMatrix& b);

}  // namespace qtda
