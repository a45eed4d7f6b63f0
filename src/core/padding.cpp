#include "core/padding.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/matrix_ops.hpp"

namespace qtda {

namespace {

/// q = ⌈log2 dim⌉ floored at 1 (QPE needs a system qubit).
std::size_t padded_qubits(std::size_t dim) {
  std::size_t q = 0;
  while ((std::size_t{1} << q) < dim) ++q;
  return std::max<std::size_t>(q, 1);
}

/// CSR symmetry check without densifying.  A and Aᵀ share the canonical
/// sorted from_triplets ordering, so a per-row two-pointer merge compares
/// |a_ij − a_ji| within tolerance; entries stored on only one side count as
/// zero on the other (matching the dense is_symmetric semantics — a tiny
/// one-sided entry must not reject what the dense path accepts).
bool sparse_is_symmetric(const SparseMatrix& a, double tolerance) {
  const SparseMatrix t = a.transposed();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::size_t ka = a.row_offsets()[r], kt = t.row_offsets()[r];
    const std::size_t ea = a.row_offsets()[r + 1];
    const std::size_t et = t.row_offsets()[r + 1];
    while (ka < ea || kt < et) {
      const std::size_t ca =
          ka < ea ? a.col_indices()[ka] : a.cols();
      const std::size_t ct =
          kt < et ? t.col_indices()[kt] : t.cols();
      double va = 0.0, vt = 0.0;
      if (ca <= ct) va = a.values()[ka++];
      if (ct <= ca) vt = t.values()[kt++];
      if (std::abs(va - vt) > tolerance) return false;
    }
  }
  return true;
}

}  // namespace

PaddingShape padding_shape(const RealMatrix& laplacian) {
  QTDA_REQUIRE(laplacian.is_square() && laplacian.rows() > 0,
               "padding needs a non-empty square matrix");
  QTDA_REQUIRE(is_symmetric(laplacian, 1e-9),
               "combinatorial Laplacian must be symmetric");
  PaddingShape shape;
  shape.num_qubits = padded_qubits(laplacian.rows());
  // λ̃max via Gershgorin; floored so a zero Laplacian still separates the
  // padding block from the kernel.
  shape.lambda_max = std::max(gershgorin_max(laplacian), 1.0);
  return shape;
}

PaddedLaplacian pad_laplacian(const RealMatrix& laplacian,
                              PaddingScheme scheme) {
  const PaddingShape shape = padding_shape(laplacian);
  PaddedLaplacian out;
  out.original_dim = laplacian.rows();
  out.scheme = scheme;
  out.num_qubits = shape.num_qubits;
  out.lambda_max = shape.lambda_max;
  const std::size_t dim = std::size_t{1} << out.num_qubits;

  out.matrix = RealMatrix(dim, dim);
  for (std::size_t i = 0; i < out.original_dim; ++i)
    for (std::size_t j = 0; j < out.original_dim; ++j)
      out.matrix(i, j) = laplacian(i, j);
  if (scheme == PaddingScheme::kIdentityHalfLambdaMax) {
    for (std::size_t i = out.original_dim; i < dim; ++i)
      out.matrix(i, i) = out.lambda_max / 2.0;
  }
  return out;
}

SparsePaddedLaplacian pad_laplacian_sparse(const SparseMatrix& laplacian,
                                           PaddingScheme scheme) {
  QTDA_REQUIRE(laplacian.rows() == laplacian.cols() && laplacian.rows() > 0,
               "padding needs a non-empty square matrix");
  QTDA_REQUIRE(sparse_is_symmetric(laplacian, 1e-9),
               "combinatorial Laplacian must be symmetric");

  SparsePaddedLaplacian out;
  out.original_dim = laplacian.rows();
  out.scheme = scheme;
  out.num_qubits = padded_qubits(out.original_dim);
  const std::size_t dim = std::size_t{1} << out.num_qubits;
  out.lambda_max = std::max(gershgorin_max(laplacian), 1.0);

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
