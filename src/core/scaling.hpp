/// \file scaling.hpp
/// \brief Spectral rescaling of the padded Laplacian (paper Eq. 8–9).
///
/// QPE phases live on the unit circle, so eigenvalues must fit [0, 2π).
/// The padded Laplacian is multiplied by δ/λ̃max with δ slightly below 2π;
/// the paper's worked example uses δ = λ̃max (= 6 < 2π) so that H = Δ̃
/// exactly — both choices are expressible here.  H stays in CSR; the exact
/// p(0) reference reads the padded spectrum off the |S_k|×|S_k| block.
#pragma once

#include "core/padding.hpp"
#include "linalg/dense_matrix.hpp"

namespace qtda {

/// Default δ: 95% of 2π keeps the top of the spectrum clear of wraparound
/// even when Gershgorin is tight.
double default_delta();

/// The rescaling factor δ/λ̃max.  \p delta must lie in (0, 2π].
double rescale_factor(double lambda_max, double delta);

/// The rescaled Hamiltonian H = (δ/λ̃max)·Δ̃ plus bookkeeping, in CSR: the
/// input of every circuit backend's oracle (Chebyshev action, Pauli
/// decomposition, or the exact backend's densified exponential).  Because
/// the Laplacian is PSD and Gershgorin-bounded by λ̃max, the scaled spectrum
/// is certified inside [0, δ] with no eigensolve — exactly the bounds the
/// Chebyshev expansion needs.
struct SparseScaledHamiltonian {
  SparseMatrix matrix = SparseMatrix(0, 0);  ///< H, acting on num_qubits qubits
  double delta = 0.0;       ///< δ used
  double scale = 0.0;       ///< δ/λ̃max
  std::size_t num_qubits = 0;
  std::size_t original_dim = 0;
  double lambda_max = 0.0;

  /// Certified spectral bounds of H (inputs to the Chebyshev oracle).
  double spectrum_min() const { return 0.0; }
  double spectrum_max() const { return delta; }

  /// Maps an eigenvalue λ of the *original* Laplacian to the QPE phase
  /// θ = λ·scale/2π ∈ [0, 1).
  double eigenvalue_to_phase(double lambda) const;
};

/// Rescales a sparse padded Laplacian.  \p delta must lie in (0, 2π].
SparseScaledHamiltonian rescale_laplacian_sparse(
    const SparsePaddedLaplacian& padded, double delta = default_delta());

/// Ascending spectrum of the padded, rescaled Hamiltonian H = scale·Δ̃ on
/// \p num_qubits qubits, from the |S_k|×|S_k| block alone.  Δ̃ = Δ_k ⊕ c·I
/// with c = λ̃max/2 (kIdentityHalfLambdaMax) or 0 (kZero), so its spectrum
/// is eig(Δ_k) plus c repeated 2^q − |S_k| times: one O(|S_k|³) eigensolve
/// instead of one on the 2^q×2^q padded matrix.
RealVector scaled_padded_spectrum(const RealMatrix& laplacian,
                                  std::size_t num_qubits, double lambda_max,
                                  double scale, PaddingScheme scheme);

}  // namespace qtda
