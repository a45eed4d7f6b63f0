#include "linalg/sparse_matrix.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qtda {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_offsets_(rows + 1, 0) {}

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    QTDA_REQUIRE(t.row < rows && t.col < cols,
                 "triplet (" << t.row << ',' << t.col << ") out of " << rows
                             << 'x' << cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SparseMatrix m(rows, cols);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    m.row_offsets_[r] = m.values_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      double value = triplets[i].value;
      const std::size_t col = triplets[i].col;
      ++i;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == col) {
        value += triplets[i].value;  // merge duplicates
        ++i;
      }
      if (value != 0.0) {
        m.col_indices_.push_back(col);
        m.values_.push_back(value);
      }
    }
  }
  m.row_offsets_[rows] = m.values_.size();
  return m;
}

SparseMatrix SparseMatrix::from_dense(const RealMatrix& dense) {
  // Row pointers, not the bounds-checked operator(), and storage reserved
  // from a counting pass: this is the entry of every dense-input estimate.
  SparseMatrix m(dense.rows(), dense.cols());
  const auto stored = static_cast<std::size_t>(std::count_if(
      dense.data(), dense.data() + dense.rows() * dense.cols(),
      [](double value) { return value != 0.0; }));
  m.col_indices_.reserve(stored);
  m.values_.reserve(stored);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    m.row_offsets_[r] = m.values_.size();
    const double* row = dense.row(r);
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      if (row[c] != 0.0) {
        m.col_indices_.push_back(c);
        m.values_.push_back(row[c]);
      }
    }
  }
  m.row_offsets_[dense.rows()] = m.values_.size();
  return m;
}

RealVector SparseMatrix::multiply(const RealVector& x) const {
  QTDA_REQUIRE(x.size() == cols_, "sparse matvec shape mismatch");
  RealVector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      acc += values_[k] * x[col_indices_[k]];
    y[r] = acc;
  }
  return y;
}

RealVector SparseMatrix::multiply_transposed(const RealVector& x) const {
  QTDA_REQUIRE(x.size() == rows_, "sparse matvec-T shape mismatch");
  RealVector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      y[col_indices_[k]] += values_[k] * xr;
  }
  return y;
}

ComplexVector SparseMatrix::multiply(const ComplexVector& x) const {
  QTDA_REQUIRE(x.size() == cols_, "sparse matvec shape mismatch");
  ComplexVector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::complex<double> acc{};
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      acc += values_[k] * x[col_indices_[k]];
    y[r] = acc;
  }
  return y;
}

RealMatrix SparseMatrix::gram() const {
  // (AᵀA)(i,j) = Σ_r A(r,i)·A(r,j): accumulate per-row outer products.
  RealMatrix g(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k1 = row_offsets_[r]; k1 < row_offsets_[r + 1]; ++k1) {
      for (std::size_t k2 = row_offsets_[r]; k2 < row_offsets_[r + 1]; ++k2) {
        g(col_indices_[k1], col_indices_[k2]) += values_[k1] * values_[k2];
      }
    }
  }
  return g;
}

RealMatrix SparseMatrix::outer_gram() const {
  // (AAᵀ)(r,s) = Σ_c A(r,c)·A(s,c): go through the transpose's rows.
  return transposed().gram();
}

SparseMatrix SparseMatrix::gram_sparse() const {
  // Same per-row outer-product accumulation as gram(), but into triplets so
  // the |S_k|×|S_k| Laplacian never materializes densely.  Boundary
  // operators have k+1 nonzeros per column, so the triplet count stays
  // near-linear in the simplex count.
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k1 = row_offsets_[r]; k1 < row_offsets_[r + 1]; ++k1) {
      for (std::size_t k2 = row_offsets_[r]; k2 < row_offsets_[r + 1]; ++k2) {
        triplets.push_back(
            {col_indices_[k1], col_indices_[k2], values_[k1] * values_[k2]});
      }
    }
  }
  return from_triplets(cols_, cols_, std::move(triplets));
}

SparseMatrix SparseMatrix::outer_gram_sparse() const {
  return transposed().gram_sparse();
}

SparseMatrix SparseMatrix::scaled(double factor) const {
  SparseMatrix out = *this;
  for (double& v : out.values_) v *= factor;
  return out;
}

RealMatrix SparseMatrix::to_dense() const {
  RealMatrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      d(r, col_indices_[k]) = values_[k];
  return d;
}

SparseMatrix SparseMatrix::transposed() const {
  std::vector<Triplet> triplets;
  triplets.reserve(values_.size());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      triplets.push_back({col_indices_[k], r, values_[k]});
  return from_triplets(cols_, rows_, std::move(triplets));
}

SparseMatrix sparse_add(const SparseMatrix& a, const SparseMatrix& b) {
  QTDA_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
               "sparse_add shape mismatch: " << a.rows() << 'x' << a.cols()
                                             << " vs " << b.rows() << 'x'
                                             << b.cols());
  std::vector<Triplet> triplets;
  triplets.reserve(a.nonzeros() + b.nonzeros());
  for (const SparseMatrix* m : {&a, &b}) {
    const auto& offsets = m->row_offsets();
    const auto& cols = m->col_indices();
    const auto& vals = m->values();
    for (std::size_t r = 0; r < m->rows(); ++r)
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
        triplets.push_back({r, cols[k], vals[k]});
  }
  return SparseMatrix::from_triplets(a.rows(), a.cols(), std::move(triplets));
}

}  // namespace qtda
