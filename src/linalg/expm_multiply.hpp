/// \file expm_multiply.hpp
/// \brief Matrix-free action of exp(iθA) on a vector (Chebyshev expansion).
///
/// The sparse QPE oracle needs y = e^{iθΔ̃}·x for the scaled Laplacian Δ̃
/// without forming the 2^q×2^q unitary.  With the spectrum of A inside
/// [λmin, λmax], substitute A = c·I + h·B (c the center, h the half-width,
/// so spec(B) ⊆ [−1, 1]) and use the Jacobi–Anger expansion
///
///   e^{iθA} = e^{iθc} · Σ_k (2 − δ_{k0}) i^k J_k(θh) T_k(B),
///
/// where J_k are Bessel functions of the first kind and T_k Chebyshev
/// polynomials.  |J_k(z)| decays superexponentially for k > |z|, so ~|θh| +
/// O(|θh|^{1/3}) sparse matvecs give full double precision — unlike a
/// truncated Taylor series, whose huge alternating terms cancel
/// catastrophically at the θ ≈ 2^t·λmax values QPE needs.  The three-term
/// Chebyshev recurrence T_{k+1} = 2B·T_k − T_{k−1} costs one CSR pass per
/// term and four vectors of workspace per right-hand side; nothing
/// quadratic in the dimension is ever allocated.  Batches run it on
/// interleaved blocks of up to eight right-hand sides, so each CSR pass
/// serves the whole block (Al-Mohy & Higham treat exp(tA)·B with a block B
/// as the native case: "Computing the action of the matrix exponential",
/// SIAM J. Sci. Comput. 33(2), 2011).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/linear_operator.hpp"
#include "linalg/sparse_matrix.hpp"

namespace qtda {

/// Tuning knobs of the Chebyshev expansion.
struct ExpmOptions {
  /// Coefficients below this magnitude are truncated; 1e-13 keeps the
  /// oracle bit-comparable to the dense eigendecomposition path.
  double tolerance = 1e-13;
};

/// Bessel functions J_0..J_n at z ≥ 0 via Miller's downward recurrence
/// (self-contained: libc++ lacks std::cyl_bessel_j).  Exposed for tests.
std::vector<double> bessel_j_sequence(std::size_t n, double z);

/// Counters of the process-wide Chebyshev/Bessel coefficient memo shared by
/// every SparseExpOperator.  The memo is LRU-bounded (a long-running daemon
/// must not leak one entry per distinct θ it ever served), and these
/// counters are how the serving layer's stats surface reports its health.
struct ExpmCoefficientCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;  ///< currently resident coefficient vectors
};

/// Snapshot of the memo counters (thread-safe).
ExpmCoefficientCacheStats expm_coefficient_cache_stats();

/// Empties the memo and zeroes the counters (tests and cold-cache benches;
/// outstanding shared_ptr holders keep their coefficient vectors alive).
void expm_coefficient_cache_clear();

/// One-shot y = exp(i·theta·A)·x for symmetric A with spectrum inside
/// [lambda_min, lambda_max] (bounds need not be tight — Gershgorin is fine).
ComplexVector expm_multiply(const SparseMatrix& a, double theta,
                            const ComplexVector& x, double lambda_min,
                            double lambda_max, const ExpmOptions& options = {});

/// The exp(i·theta·A) action packaged as a reusable LinearOperator: the
/// Chebyshev coefficients are computed once at construction, then every
/// application costs num_terms() CSR passes per block of right-hand sides.
/// This is the matrix-free QPE oracle U^p = exp(i·p·H) (construct with
/// theta = p).
class SparseExpOperator final : public LinearOperator {
 public:
  /// \p a must be symmetric with spectrum inside [lambda_min, lambda_max].
  SparseExpOperator(SparseMatrix a, double theta, double lambda_min,
                    double lambda_max, const ExpmOptions& options = {});

  /// Shared-matrix overload: the t controlled powers of one QPE circuit all
  /// exponentiate the same Hamiltonian, so they share one CSR copy instead
  /// of duplicating it per power (the matrix dominates memory at large q).
  SparseExpOperator(std::shared_ptr<const SparseMatrix> a, double theta,
                    double lambda_min, double lambda_max,
                    const ExpmOptions& options = {});

  std::size_t dimension() const override { return a_->rows(); }
  std::string name() const override { return "chebyshev-exp"; }

  /// The batch path at count 1 (its CSR passes split across rows from
  /// 2^16 stored nonzeros).
  void apply(const std::complex<double>* x,
             std::complex<double>* y) const override;

  /// Runs one Chebyshev recurrence per block of up to eight vectors,
  /// transposed into an interleaved [d × width] layout so every CSR entry is
  /// loaded once per block; a trailing partial block runs at its own width.
  /// Pieces of blocks run on the shared pool, and a batch of fewer than
  /// eight vectors per worker narrows its blocks so every worker gets the
  /// same number; a single vector splits its CSR passes across rows
  /// instead once the matrix holds 2^16 nonzeros.  Each vector's result is
  /// bit-identical to applying it alone, at every SIMD level.
  void apply_batch(const std::complex<double>* x, std::complex<double>* y,
                   std::size_t count) const override;

  /// Native complex64 rail: the same blocked recurrence with float CSR
  /// values, coefficients and workspace, halving the memory traffic of
  /// every CSR pass instead of widening around the default rail.  The float
  /// mirrors of the values and coefficients are narrowed once, lazily.
  void apply_batch_f32(const std::complex<float>* x, std::complex<float>* y,
                       std::size_t count) const override;

  /// Number of retained expansion terms (CSR passes per application).
  std::size_t num_terms() const { return coefficients_->size(); }

  double theta() const { return theta_; }

  /// The shared coefficient vector — exposed so tests can assert that equal
  /// setups (the 2^j ladder rebuilt across shots/trajectories/estimates)
  /// share one computation instead of rederiving Bessel sequences.
  std::shared_ptr<const std::vector<std::complex<double>>> coefficients()
      const {
    return coefficients_;
  }

 private:
  /// Builds values_f32_/coefficients_f32_ on first float application.
  void ensure_f32() const;

  std::shared_ptr<const SparseMatrix> a_;
  double theta_ = 0.0;
  double center_ = 0.0;      ///< spectral center c
  double half_width_ = 0.0;  ///< spectral half-width h (0 ⇒ A = c·I)
  /// a_k = (2 − δ_{k0}) i^k J_k(θh) · e^{iθc}, truncated at tolerance.
  /// Shared through a process-wide memo: the coefficients depend only on
  /// (z = θh, φ = θc, tolerance), so every controlled power of the QPE
  /// ladder — and every rebuild of the same ladder — reuses one setup.
  std::shared_ptr<const std::vector<std::complex<double>>> coefficients_;
  /// Narrowed mirrors for the float rail (values in CSR order).  Built under
  /// call_once: apply_batch_f32 must stay safe for concurrent callers.
  mutable std::once_flag f32_once_;
  mutable std::vector<float> values_f32_;
  mutable std::vector<std::complex<float>> coefficients_f32_;
};

}  // namespace qtda
