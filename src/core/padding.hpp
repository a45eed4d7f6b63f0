/// \file padding.hpp
/// \brief Power-of-two padding of the combinatorial Laplacian (paper Eq. 7).
///
/// QPE acts on 2^q dimensions, so Δ_k (dimension |S_k|) must be embedded in
/// the next power of two.  The paper's key implementation point: padding
/// with zeros adds 2^q − |S_k| *new zero eigenvalues*, corrupting the Betti
/// count; padding with (λ̃max/2)·I places the ghost eigenvalues mid-spectrum
/// where QPE cleanly rejects them.  Both schemes are provided — the zero
/// scheme feeds the ablation bench that demonstrates the paper's point.
#pragma once

#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace qtda {

/// How the padding block is filled.
enum class PaddingScheme {
  kIdentityHalfLambdaMax,  ///< paper's proposal: (λ̃max/2)·I
  kZero,                   ///< naive zero padding (ablation)
};

/// Result of the padding step.
struct PaddedLaplacian {
  RealMatrix matrix;        ///< 2^q × 2^q padded operator Δ̃
  std::size_t num_qubits = 0;   ///< q = ⌈log2 |S_k|⌉ (min 1)
  std::size_t original_dim = 0; ///< |S_k|
  double lambda_max = 0.0;  ///< Gershgorin bound λ̃max of the original Δ
  PaddingScheme scheme = PaddingScheme::kIdentityHalfLambdaMax;
};

/// q and λ̃max of the padded Laplacian, read from |S_k| and the Gershgorin
/// bound with pad_laplacian's checks (square, non-empty, symmetric) but
/// without forming the 2^q×2^q matrix — all an analytic estimate needs.
struct PaddingShape {
  std::size_t num_qubits = 0;  ///< q = ⌈log2 |S_k|⌉ (min 1)
  double lambda_max = 0.0;     ///< Gershgorin bound λ̃max, floored at 1
};
PaddingShape padding_shape(const RealMatrix& laplacian);

/// Pads a combinatorial Laplacian to the nearest power of two (paper Eq. 7).
/// A 1×1 input still becomes 2×2 (q = 1): QPE needs at least one system
/// qubit.  λ̃max is computed with the Gershgorin circle theorem and floored
/// at a small positive value so that the all-zero Laplacian (fully
/// disconnected complex) still pads to a spectrum-separating value.
PaddedLaplacian pad_laplacian(const RealMatrix& laplacian,
                              PaddingScheme scheme =
                                  PaddingScheme::kIdentityHalfLambdaMax);

/// Sparse counterpart of PaddedLaplacian: Δ̃ stays in CSR, so the padding
/// block contributes only 2^q − |S_k| diagonal entries instead of a dense
/// 2^q×2^q matrix.  Feeds the matrix-free QPE oracle.
struct SparsePaddedLaplacian {
  SparseMatrix matrix = SparseMatrix(0, 0);  ///< 2^q × 2^q padded operator Δ̃
  std::size_t num_qubits = 0;    ///< q = ⌈log2 |S_k|⌉ (min 1)
  std::size_t original_dim = 0;  ///< |S_k|
  double lambda_max = 0.0;  ///< Gershgorin bound λ̃max of the original Δ
  PaddingScheme scheme = PaddingScheme::kIdentityHalfLambdaMax;
};

/// Sparse padding with identical semantics to pad_laplacian (same q,
/// λ̃max, and ghost-eigenvalue placement).
SparsePaddedLaplacian pad_laplacian_sparse(
    const SparseMatrix& laplacian,
    PaddingScheme scheme = PaddingScheme::kIdentityHalfLambdaMax);

}  // namespace qtda
