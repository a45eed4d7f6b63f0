/// \file padding.hpp
/// \brief Power-of-two padding of the combinatorial Laplacian (paper Eq. 7).
///
/// QPE acts on 2^q dimensions, so Δ_k (dimension |S_k|) must be embedded in
/// the next power of two.  The paper's key implementation point: padding
/// with zeros adds 2^q − |S_k| *new zero eigenvalues*, corrupting the Betti
/// count; padding with (λ̃max/2)·I places the ghost eigenvalues mid-spectrum
/// where QPE cleanly rejects them.  Both schemes are provided — the zero
/// scheme feeds the ablation bench that demonstrates the paper's point.
///
/// Δ_k arrives in CSR (the estimator's dense entry points convert with
/// SparseMatrix::from_dense), so the padding block adds only 2^q − |S_k|
/// diagonal entries; the exact backend densifies the padded result.
#pragma once

#include "linalg/sparse_matrix.hpp"

namespace qtda {

/// How the padding block is filled.
enum class PaddingScheme {
  kIdentityHalfLambdaMax,  ///< paper's proposal: (λ̃max/2)·I
  kZero,                   ///< naive zero padding (ablation)
};

/// q and λ̃max of the padded Laplacian — all an analytic estimate needs.
struct PaddingShape {
  std::size_t num_qubits = 0;  ///< q = ⌈log2 |S_k|⌉ (min 1)
  double lambda_max = 0.0;     ///< Gershgorin bound λ̃max, floored at 1
};

/// Checks that \p laplacian is non-empty, square and symmetric (to 1e-9; an
/// entry stored on one side only counts as zero on the other) and reads its
/// padded shape from |S_k| and the Gershgorin bound, without forming the
/// 2^q×2^q matrix.  A 1×1 input still gives q = 1: QPE needs at least one
/// system qubit.  λ̃max is floored at 1 so that the all-zero Laplacian (fully
/// disconnected complex) still pads to a spectrum-separating value.
PaddingShape padding_shape(const SparseMatrix& laplacian);

/// The padded operator Δ̃ = Δ_k ⊕ c·I in CSR, c = λ̃max/2 or 0.
struct SparsePaddedLaplacian {
  SparseMatrix matrix = SparseMatrix(0, 0);  ///< 2^q × 2^q padded operator Δ̃
  std::size_t num_qubits = 0;    ///< q = ⌈log2 |S_k|⌉ (min 1)
  std::size_t original_dim = 0;  ///< |S_k|
  double lambda_max = 0.0;  ///< Gershgorin bound λ̃max of the original Δ
  PaddingScheme scheme = PaddingScheme::kIdentityHalfLambdaMax;
};

/// Pads a combinatorial Laplacian to the nearest power of two (paper Eq. 7),
/// with padding_shape's checks, q and λ̃max.
SparsePaddedLaplacian pad_laplacian_sparse(
    const SparseMatrix& laplacian,
    PaddingScheme scheme = PaddingScheme::kIdentityHalfLambdaMax);

}  // namespace qtda
