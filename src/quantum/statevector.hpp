/// \file statevector.hpp
/// \brief Dense state-vector simulator, templated over the amplitude scalar.
///
/// Amplitudes are stored for all 2^n basis states under the MSB-first qubit
/// convention of types.hpp.  Gate kernels are cache-friendly strided loops
/// and run serially at every size (the state for the paper's circuits
/// ranges from 2^3 to 2^20 amplitudes).  The shared pool runs the ordered
/// reductions behind marginals and norms above 2^17 amplitudes and the
/// operator gates' batches of right-hand sides.
///
/// The engine remembers when it holds exactly one basis state |b⟩: after
/// construction and after set_basis_state(b), until anything else writes
/// the amplitudes.  apply_plan uses that mark to run a plan's leading
/// single-qubit ops on the support of |b⟩ alone (the estimator's
/// purification ladder and precision H wall touch 2^(t+q) of the 2^(t+2q)
/// amplitudes), with the bytes a full sweep would give; set_basis_state
/// uses it to clear one amplitude instead of refilling the register.
///
/// The engine is `BasicStatevector<Real>` with `Real` ∈ {double, float}
/// (explicitly instantiated in statevector.cpp): complex128 is the default
/// and the reference arithmetic, complex64 halves the memory traffic of
/// every sweep.  The *boundary* of the engine stays double regardless of
/// Real — gate matrices arrive as ComplexMatrix and are cast at kernel
/// entry, probabilities/marginals accumulate in double — so only the state
/// itself and the per-amplitude arithmetic change width.  Hot loops route
/// through quantum/simd_kernels.hpp (runtime AVX2/AVX-512 dispatch); at
/// QTDA_SIMD=0 they run the historical scalar expressions unchanged.
#pragma once

#include <complex>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/linear_operator.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/types.hpp"

namespace qtda {

struct NoiseModel;  // quantum/noise.hpp (which includes this header)

/// Widens an amplitude to the double boundary type (identity for double —
/// the double engine's reductions are source-identical to the historical
/// ones; the float engine widens per element and accumulates in double).
/// These overloads ARE the precision boundary.  qtda-lint: allow(complex-scalar)
inline Amplitude widen(const std::complex<double>& a) { return a; }
inline Amplitude widen(const std::complex<float>& a) {
  return Amplitude{static_cast<double>(a.real()),
                   static_cast<double>(a.imag())};
}

/// |a|² accumulated at the double boundary: std::norm for double (the
/// historical expression), widen-then-square for float so probabilities
/// lose no precision beyond what the float amplitudes already lost.
/// Boundary overload, not a pinned scalar.  qtda-lint: allow(complex-scalar)
inline double norm_sq_as_double(const std::complex<double>& a) {
  return std::norm(a);
}
inline double norm_sq_as_double(const std::complex<float>& a) {
  const double re = a.real();
  const double im = a.imag();
  return re * re + im * im;
}

/// A pure n-qubit state over std::complex<Real> amplitudes.
template <typename Real>
class BasicStatevector {
 public:
  using C = std::complex<Real>;

  /// |0…0⟩ on \p num_qubits qubits.
  explicit BasicStatevector(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }
  const std::vector<C>& amplitudes() const { return amplitudes_; }
  /// Mutable view of the 2^n amplitudes (length dimension()) for in-place
  /// channel kernels — the exact depolarizing channel rewrites vec(ρ)
  /// directly instead of copying the full vector out and back in.  Callers
  /// own normalization, exactly as with set_amplitudes().  Clears the basis
  /// mark, since the caller may write through the pointer.
  C* mutable_amplitudes() {
    basis_.reset();
    return amplitudes_.data();
  }
  C amplitude(std::uint64_t index) const;

  /// Resets to the computational basis state |index⟩ and marks the state
  /// as that basis state.  On a state still marked (nothing has written the
  /// amplitudes since construction or the last reset) it clears the one
  /// nonzero amplitude instead of refilling all 2^n.
  void set_basis_state(std::uint64_t index);

  /// Sets arbitrary amplitudes (must have length 2^n; normalized by caller
  /// or via normalize()).
  void set_amplitudes(std::vector<C> amplitudes);

  // -- gate application -------------------------------------------------------
  /// Applies a named or dense gate (with controls) from the circuit IR.
  void apply_gate(const Gate& gate);
  /// 2×2 matrix on \p target, conditioned on all \p controls being 1.
  void apply_single_qubit(const ComplexMatrix& u, std::size_t target,
                          const std::vector<std::size_t>& controls = {});
  /// Dense 2^m×2^m matrix over ordered targets (first = most significant
  /// local bit), conditioned on controls.
  void apply_unitary(const ComplexMatrix& u,
                     const std::vector<std::size_t>& targets,
                     const std::vector<std::size_t>& controls = {});
  /// Matrix-free operator over ordered targets (same wire convention as
  /// apply_unitary), conditioned on controls.  Sub-register blocks are
  /// gathered into packed buffers and handed to the operator in batches, so
  /// nothing quadratic in the block dimension is allocated — this is the
  /// execution path of the sparse QPE oracle.  A batch hands the operator
  /// each distinct block once: blocks byte-identical to an earlier one
  /// (found by hash, confirmed by memcmp) take its result, which is the
  /// same bytes by the apply_batch contract.  The exec.operator.rhs and
  /// exec.operator.rhs_skipped counters record gathered and skipped blocks.
  /// The operator must be unitary for the state to stay normalized.
  void apply_operator(const LinearOperator& op,
                      const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& controls = {});
  /// Executes a compiled plan (quantum/compiler.hpp), including its global
  /// phase: the fast path of the estimator — precomputed masks/offsets, no
  /// per-gate setup, scratch from the plan's arena.  With fusion disabled
  /// the result is bit-identical to applying the source gates one by one
  /// through apply_gate; with fusion it agrees to ~1e-12 (dense blocks
  /// reassociate the floating-point order).
  ///
  /// On a state marked as the basis state |b⟩ (see set_basis_state), the
  /// plan's leading kSingleQubit ops are folded: each runs, in place and
  /// with the scalar pair update, only on the pairs that meet the support
  /// of the evolving state (the amplitudes that are not +0); pairs wholly
  /// outside the support are never touched.  The vector sweeps match
  /// that update bit for bit, so the result is the swept one byte for byte.
  /// The fold stops at the first op that is not a single-qubit op, whose
  /// update of a zero pair is not +0 (the sweep would write that to every
  /// pair the fold skips), or that could grow the support past 1/16 of the
  /// register; that op and the rest are swept.  Folded ops count in
  /// exec.ops.single_qubit / exec.ns.single_qubit like swept ones, and in
  /// exec.ops.folded.  The support list and its membership bitmap live in
  /// the plan's scratch arena.
  void apply_plan(const ExecutionPlan& plan);
  /// One stochastic noisy trajectory of a plan compiled with
  /// preserve_noise_slots, on the current state: after each op, one
  /// depolarizing event per touched qubit of its source gate
  /// (maybe_apply_depolarizing: one Bernoulli draw, then one uniform index
  /// when it fires).  The global phase is dropped; run_noisy_trajectory
  /// applies it after the walk.
  void apply_plan_with_noise(const ExecutionPlan& plan,
                             const NoiseModel& noise, Rng& rng);
  /// Executes one compiled op — the building block of both plan walks.
  void apply_plan_op(const CompiledOp& op, ExecutionScratch& scratch);
  /// Multiplies the whole state by e^{iφ}.
  void apply_global_phase(double phi);

  // -- measurement ------------------------------------------------------------
  /// |amplitude|² of one basis state.
  double probability(std::uint64_t index) const;
  /// Full probability vector (length 2^n).
  std::vector<double> probabilities() const;
  /// Marginal distribution over an ordered qubit subset (MSB-first: the
  /// first listed qubit is the most significant bit of the outcome).
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const;
  /// Draws \p shots outcomes over the given qubits; returns counts indexed
  /// by outcome.  Sampling is exact multinomial from the marginal.
  std::vector<std::uint64_t> sample_counts(
      const std::vector<std::size_t>& qubits, std::size_t shots,
      Rng& rng) const;

  /// Σ|amp|² (double accumulation at every precision); 1 for a normalized
  /// state.
  double norm_squared() const;
  /// Rescales to unit norm (throws on the zero vector).
  void normalize();
  /// ⟨this|other⟩, accumulated in double.
  Amplitude inner_product(const BasicStatevector& other) const;

 private:
  /// Shared kernels: the per-gate primitives and the compiled-plan path
  /// both land here, so their arithmetic cannot drift (the root of the
  /// QTDA_FUSE=0 bit-identity guarantee).  Matrices arrive pre-cast to the
  /// amplitude scalar (row-major pointers) so one kernel body serves both
  /// precisions.
  void single_qubit_kernel(C u00, C u01, C u10, C u11, std::uint64_t mask,
                           std::uint64_t cmask);
  /// Uncontrolled 4×4 block over two wires — the fused-pair workhorse: same
  /// arithmetic as block_kernel but with mask-expansion enumeration instead
  /// of the offset-table gather.  \p u is the row-major 4×4 matrix.
  void two_qubit_kernel(const C* u, std::uint64_t mask_high,
                        std::uint64_t mask_low);
  void block_kernel(const C* u, std::uint64_t tmask, std::uint64_t cmask,
                    const std::vector<std::uint64_t>& offsets,
                    std::vector<C>& scratch, std::vector<C>& scratch_out);
  void diagonal_kernel(const C* table, const DiagonalExtract& extract);
  void operator_kernel(const LinearOperator& op, bool contiguous,
                       const std::vector<std::uint64_t>& offsets,
                       const std::vector<std::uint64_t>& bases,
                       ExecutionScratch& scratch);

  std::size_t num_qubits_;
  std::vector<C> amplitudes_;
  /// b while the state is exactly |b⟩ with every other amplitude +0 bytes;
  /// cleared by every kernel and every other write of the amplitudes.
  std::optional<std::uint64_t> basis_;
};

/// The historical (and default) double-precision engine.
using Statevector = BasicStatevector<double>;
/// The complex64 engine: same kernels, half the bandwidth.
using StatevectorF32 = BasicStatevector<float>;

extern template class BasicStatevector<double>;
extern template class BasicStatevector<float>;

/// Multinomial sampling helper shared with the analytic backend: draws
/// \p shots outcomes from \p distribution (need not be perfectly normalized;
/// it is renormalized internally) and returns per-outcome counts.
std::vector<std::uint64_t> multinomial_sample(
    const std::vector<double>& distribution, std::size_t shots, Rng& rng);

}  // namespace qtda
