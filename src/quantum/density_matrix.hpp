/// \file density_matrix.hpp
/// \brief Exact mixed-state simulation via vectorized density matrices.
///
/// The trajectory sampler in noise.hpp is unbiased but stochastic; this
/// simulator evolves ρ itself, so noise channels are applied *exactly* —
/// the reference the trajectory tests converge to, and an exact backend for
/// the NISQ ablation.  Implementation: vec(ρ) is held as a 2n-qubit
/// state-vector and every gate U becomes U ⊗ conj(U) (row register qubits
/// [0, n), column register [n, 2n)), reusing the optimized state-vector
/// kernels.  Matrix-free kOperator gates stay matrix-free: the operator is
/// applied verbatim on the row register and through the ConjugatedOperator
/// adapter on the column register, so the sparse QPE oracle composes with
/// exact channels without any 2^q×2^q densification.  A depolarizing
/// channel is the convex combination (1−p)·ρ + (p/3)·(XρX + YρY + ZρZ).
///
/// Like the pure-state engines the class is templated over the amplitude
/// scalar (`BasicDensityMatrix<Real>`, Real ∈ {double, float}): vec(ρ) is a
/// `BasicStatevector<Real>`, so every kernel — including the SIMD routing —
/// is inherited, and traces/purities/probabilities accumulate in double at
/// every precision.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "linalg/linear_operator.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"
#include "quantum/statevector.hpp"

namespace qtda {

/// Hard width cap of the 4^n vectorized storage — one definition for the
/// constructor check here and the fail-fast guard in make_simulator, so the
/// two cannot drift.  13 qubits ⇒ 4^13 amplitudes ≈ 1 GiB.
inline constexpr std::size_t kDensityMatrixMaxQubits = 13;

/// An n-qubit density matrix (2n-qubit vectorized storage: 4^n amplitudes).
template <typename Real>
class BasicDensityMatrix {
 public:
  using C = std::complex<Real>;

  /// |0…0⟩⟨0…0|.
  explicit BasicDensityMatrix(std::size_t num_qubits);

  /// ρ = |ψ⟩⟨ψ| from a pure state.
  static BasicDensityMatrix from_statevector(const BasicStatevector<Real>& psi);

  /// ρ = I/2^n.
  static BasicDensityMatrix maximally_mixed(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }

  /// Matrix element ρ(r, c), widened to the double boundary type.
  Amplitude element(std::uint64_t row, std::uint64_t col) const;

  /// Resets to the pure basis state |index⟩⟨index|.
  void set_basis_state(std::uint64_t index);

  /// Applies U·ρ·U† for a circuit-IR gate (named, dense or matrix-free
  /// operator kind, with controls).
  void apply_gate(const Gate& gate);
  /// Executes a compiled plan (quantum/compiler.hpp): fused diagonals as
  /// one-pass DρD†, every other op through apply_gate.  The global phase
  /// cancels on ρ.
  void apply_plan(const ExecutionPlan& plan);
  /// Executes a plan compiled with preserve_noise_slots with the noise
  /// model applied exactly after each op, on every touched qubit of its
  /// source gate (the error placement of run_noisy_trajectory).
  void apply_plan_with_noise(const ExecutionPlan& plan,
                             const NoiseModel& noise);
  /// U·ρ·U† for a matrix-free operator over the ordered target sub-register
  /// (MSB-first convention of Statevector::apply_operator), conditioned on
  /// controls: the operator runs verbatim on the row register and as
  /// conj(op) (ConjugatedOperator) on the column register — two sub-register
  /// applications, nothing densified.  \p op is borrowed for the call.
  void apply_operator(const LinearOperator& op,
                      const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& controls = {});
  /// Fused diagonal D (quantum/compiler.hpp convention: 2^m table over the
  /// ordered target list, extraction recipe for the n-qubit register):
  /// applies DρD† in one pass over vec(ρ) — each entry picks up
  /// table[row index]·conj(table[column index]).  \p table is pre-cast to
  /// the amplitude scalar (CompiledOp caches both widths).
  void apply_diagonal(const C* table, const DiagonalExtract& extract);
  /// Exact depolarizing channel of strength p on one qubit.
  void apply_depolarizing(std::size_t qubit, double probability);

  /// Tr ρ (1 for a valid state).
  double trace() const;
  /// Tr ρ² ∈ (0, 1]; 1 iff pure.
  double purity() const;

  /// Diagonal of ρ: exact outcome probabilities in the computational basis.
  std::vector<double> probabilities() const;
  /// Marginal outcome distribution over a qubit subset (MSB-first order).
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const;
  /// Multinomial shot sampling from the marginal.
  std::vector<std::uint64_t> sample_counts(
      const std::vector<std::size_t>& qubits, std::size_t shots,
      Rng& rng) const;

 private:
  explicit BasicDensityMatrix(std::size_t num_qubits,
                              BasicStatevector<Real> vectorized);

  /// One compiled op — the building block of both plan walks.
  void apply_plan_op(const CompiledOp& op);

  std::size_t num_qubits_;
  // 2n qubits: row block [0, n), column block [n, 2n).
  BasicStatevector<Real> vectorized_;
};

/// The historical (and default) double-precision engine.
using DensityMatrix = BasicDensityMatrix<double>;
/// The complex64 engine.
using DensityMatrixF32 = BasicDensityMatrix<float>;

extern template class BasicDensityMatrix<double>;
extern template class BasicDensityMatrix<float>;

/// Runs a circuit on |0…0⟩⟨0…0| with exact noise: compiled unfused, or with
/// preserve_noise_slots when \p noise is not noiseless.
DensityMatrix run_circuit_density(const Circuit& circuit,
                                  const NoiseModel& noise = {});

}  // namespace qtda
