#include "core/padding.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/gershgorin.hpp"

namespace qtda {

namespace {

/// q = ⌈log2 dim⌉ floored at 1 (QPE needs a system qubit).
std::size_t padded_qubits(std::size_t dim) {
  std::size_t q = 0;
  while ((std::size_t{1} << q) < dim) ++q;
  return std::max<std::size_t>(q, 1);
}

/// |a_ij − a_ji| within tolerance for every stored entry, its mirror found
/// by binary search in the sorted columns of row j (no transposed copy).  An
/// entry stored on one side only counts as zero on the other, as in the
/// dense is_symmetric.
bool sparse_is_symmetric(const SparseMatrix& a, double tolerance) {
  const std::size_t* offsets = a.row_offsets().data();
  const std::size_t* cols = a.col_indices().data();
  const double* values = a.values().data();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const std::size_t c = cols[k];
      const std::size_t* end = cols + offsets[c + 1];
      const std::size_t* mirror = std::lower_bound(cols + offsets[c], end, r);
      const double value =
          mirror != end && *mirror == r ? values[mirror - cols] : 0.0;
      if (std::abs(values[k] - value) > tolerance) return false;
    }
  }
  return true;
}

}  // namespace

PaddingShape padding_shape(const SparseMatrix& laplacian) {
  QTDA_REQUIRE(laplacian.rows() == laplacian.cols() && laplacian.rows() > 0,
               "padding needs a non-empty square matrix");
  QTDA_REQUIRE(sparse_is_symmetric(laplacian, 1e-9),
               "combinatorial Laplacian must be symmetric");
  PaddingShape shape;
  shape.num_qubits = padded_qubits(laplacian.rows());
  // λ̃max via Gershgorin; floored so a zero Laplacian still separates the
  // padding block from the kernel.
  shape.lambda_max = std::max(gershgorin_max(laplacian), 1.0);
  return shape;
}

SparsePaddedLaplacian pad_laplacian_sparse(const SparseMatrix& laplacian,
                                           PaddingScheme scheme) {
  const PaddingShape shape = padding_shape(laplacian);
  SparsePaddedLaplacian out;
  out.original_dim = laplacian.rows();
  out.scheme = scheme;
  out.num_qubits = shape.num_qubits;
  out.lambda_max = shape.lambda_max;
  const std::size_t dim = std::size_t{1} << out.num_qubits;

  std::vector<Triplet> triplets;
  triplets.reserve(laplacian.nonzeros() + (dim - out.original_dim));
  const auto& offsets = laplacian.row_offsets();
  const auto& cols = laplacian.col_indices();
  const auto& vals = laplacian.values();
  for (std::size_t r = 0; r < laplacian.rows(); ++r)
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      triplets.push_back({r, cols[k], vals[k]});
  if (scheme == PaddingScheme::kIdentityHalfLambdaMax) {
    for (std::size_t i = out.original_dim; i < dim; ++i)
      triplets.push_back({i, i, out.lambda_max / 2.0});
  }
  out.matrix = SparseMatrix::from_triplets(dim, dim, std::move(triplets));
  return out;
}

}  // namespace qtda
