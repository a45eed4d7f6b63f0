/// \file compiler.hpp
/// \brief Circuit compilation: lowering a Circuit into an ExecutionPlan.
///
/// The gate IR is built for clarity — one named gate per list entry — but
/// executing it verbatim costs one full pass over the 2^n amplitudes *per
/// gate*: an H-wall on t precision qubits is t sweeps, a QFT another
/// t(t+1)/2.  The compiler removes that tax once, ahead of execution:
///
///  * **Inverse-pair cancellation**: before clustering, one linear pass
///    drops adjacent gate pairs that undo each other exactly — the same
///    self-inverse kind (H/X/Y/Z), or S/Sdg or T/Tdg, on identical targets
///    and controls, with no kept gate between them on any of their wires.
///    Per-wire stacks of kept gates let a cancellation expose the next pair
///    (X H H X cancels completely).  The Trotter fragments' basis walls and
///    CNOT ladders are where such pairs occur.
///  * **Gate fusion** (qsim style): adjacent gates whose combined support
///    stays within 4 qubits are greedily merged — across commuting,
///    wire-disjoint neighbours — into single dense-block gates, so dozens
///    of sweeps collapse into one.  Controls are folded into the fused
///    block (a controlled-U is just a bigger unitary).  A per-cluster cost
///    model compares the fused block against the sweeps it replaces and
///    falls back to the verbatim gates when fusing would lose.
///  * **Diagonal fusion**: runs of diagonal gates (Z/S/T/RZ/Phase and their
///    controlled forms — the controlled-phase rungs that dominate the QFT
///    and the QPE oracle ladder) merge into single diagonal ops over up to
///    12 qubits.  A fused diagonal costs *one* multiply per amplitude
///    regardless of how many gates it absorbed — the biggest single-sweep
///    collapse in the QPE network.
///  * **Precompilation**: every op carries its masks, local-offset tables,
///    block-base enumeration and materialized matrices, so executing a plan
///    performs no per-gate validation, mask building, or matrix
///    construction — the costs a trajectory ensemble otherwise pays
///    hundreds of times.
///  * **Scratch arena**: the plan owns the gather/scatter and operator
///    batch buffers its execution needs, so `apply_plan` allocates nothing
///    per gate (and nothing at all after the first execution).
///  * **Noise slots**: compiled with `preserve_noise_slots`, the plan keeps
///    one op per source gate and records each gate's touched qubits, so the
///    noisy walk (executor.hpp's for_each_plan_op_with_noise) places one
///    error event per touched qubit after each source gate — the error
///    placement and RNG draw order of a gate-by-gate walk — while still
///    skipping all per-gate setup.
///
/// Compiling is the only way to run a Circuit: with fusion off every gate
/// lowers to one op whose arithmetic is the engines' gate primitive
/// (apply_gate) bit for bit, and nothing is cancelled.  The one
/// environment knob (read by compiler_options_from_env) is `QTDA_FUSE=0`,
/// which turns fusion and cancellation off.
///
/// A plan is immutable and engine-agnostic; it may be executed many times
/// (all QPE shots and all noise trajectories of an estimate reuse one
/// plan), but by one executor at a time — the scratch arena is shared
/// mutable state.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/types.hpp"

namespace qtda {

/// Compilation knobs.
struct CompilerOptions {
  /// Master switch of cancellation and fusion; off, every source gate
  /// lowers to exactly one op with its original targets/controls —
  /// bit-identical to applying the gates one by one through the engines'
  /// apply_gate.
  bool fuse = true;
  /// Keep one op per source gate and record its noise slot (touched qubits,
  /// strength class) so noisy execution preserves the exact error placement
  /// and RNG consumption order of the unfused walk.  Implies no
  /// cancellation and no cross-gate fusion.
  bool preserve_noise_slots = false;
};

/// \p base overridden by the environment: QTDA_FUSE (0/1).  A malformed
/// value fails fast naming the variable, mirroring the QTDA_SIMULATOR
/// convention.
CompilerOptions compiler_options_from_env(CompilerOptions base = {});

/// Canonical cache-key token of the options ("fuse=1,noise=0"): two
/// CompilerOptions produce interchangeable plans for the same circuit iff
/// their tokens are equal.  This is the fuse-settings component of the
/// serving layer's content-keyed plan cache — keying on the token (instead
/// of a hash of it) keeps distinct settings structurally incapable of
/// colliding.
std::string compiler_options_cache_key(const CompilerOptions& options);

/// One executable unit of a plan.
struct CompiledOp {
  enum class Kind {
    kSingleQubit,  ///< 2×2 matrix, precomputed entries + masks
    kBlock,        ///< dense 2^m×2^m block over ordered targets
    kDiagonal,     ///< fused diagonal: one table lookup + multiply per amp
    kOperator,     ///< matrix-free LinearOperator gate
  };

  Kind kind = Kind::kSingleQubit;

  /// The op as an ordinary IR gate — what the density-matrix engine's
  /// apply_gate runs (named single-qubit gates are materialized to kUnitary
  /// so no engine rebuilds matrices per application).  For kDiagonal ops
  /// the matrix is left empty: engines execute the `diagonal` table.
  Gate gate;

  // -- precomputed execution data (dense-engine fast path) -------------------
  std::uint64_t tmask = 0;  ///< union of target bits
  std::uint64_t cmask = 0;  ///< union of control bits
  Amplitude u00, u01, u10, u11;          ///< kSingleQubit matrix entries
  std::vector<std::uint64_t> offsets;    ///< local-index → global offset
  std::vector<std::uint64_t> bases;      ///< kOperator block bases
  bool contiguous = false;               ///< kOperator memcpy layout
  /// kDiagonal: the 2^m phase table (local convention of offsets) and the
  /// shift/mask recipe extracting its index from a global index.
  std::vector<Amplitude> diagonal;
  DiagonalExtract diag_extract;

  // -- noise slot (meaningful when the plan preserves noise slots) -----------
  std::vector<std::size_t> noise_qubits;  ///< targets then controls
  bool noise_multi = false;  ///< ≥2 touched wires → two-qubit strength

  /// How many source gates this op absorbed (1 unless fused).
  std::size_t fused_gates = 1;

  /// Lazily-built complex64 mirror of `diagonal`, for the float-precision
  /// executors (compiled_diagonal<float>).  Built on first use without
  /// locking — safe under the plan's one-executor-at-a-time contract, the
  /// same contract the shared scratch arena already relies on.
  const std::vector<std::complex<float>>& diagonal_f32() const {
    if (diagonal_f32_.empty() && !diagonal.empty()) {
      diagonal_f32_.reserve(diagonal.size());
      for (const Amplitude& d : diagonal)
        diagonal_f32_.emplace_back(static_cast<float>(d.real()),
                                   static_cast<float>(d.imag()));
    }
    return diagonal_f32_;
  }

  /// Lazily-built complex64 mirror of the dense matrix (row-major), same
  /// contract as diagonal_f32().
  const std::vector<std::complex<float>>& matrix_f32() const {
    const std::size_t n = gate.matrix.rows() * gate.matrix.cols();
    if (matrix_f32_.empty() && n != 0) {
      matrix_f32_.reserve(n);
      const Amplitude* src = gate.matrix.data();
      for (std::size_t i = 0; i < n; ++i)
        matrix_f32_.emplace_back(static_cast<float>(src[i].real()),
                                 static_cast<float>(src[i].imag()));
    }
    return matrix_f32_;
  }

 private:
  mutable std::vector<std::complex<float>> diagonal_f32_;
  mutable std::vector<std::complex<float>> matrix_f32_;
};

/// What the compiler did — surfaced by `--stats` drivers and asserted by
/// tests.
struct CompilerStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t cancelled_pairs = 0;  ///< exact inverse pairs dropped
  std::size_t fused_blocks = 0;     ///< ops absorbing ≥ 2 source gates
  std::size_t diagonal_blocks = 0;  ///< the fused ops that are diagonal
  std::size_t operator_gates = 0;   ///< matrix-free passthrough ops
  /// block_width_histogram[w] = number of fused ops (dense or diagonal)
  /// with support w (index 0 unused).
  std::vector<std::size_t> block_width_histogram;

  /// Multi-line human-readable rendering.
  std::string to_string() const;
};

/// Reusable buffers owned by a plan: gather/scatter block scratch, the
/// operator batch buffers and the operator kernel's deduplication tables.
/// Grown on first use, then reused by every subsequent execution of the
/// plan.
struct ExecutionScratch {
  std::vector<Amplitude> block;
  std::vector<Amplitude> block_out;  ///< vectorized block-apply output rows
  std::vector<Amplitude> packed_in;   ///< distinct gathered blocks
  std::vector<Amplitude> packed_out;  ///< the operator applied to them
  /// Deduplication of an operator batch (both precisions): the hash of each
  /// distinct block, an open-addressing table of distinct indices + 1 (0 =
  /// empty), and for each gathered block the distinct block it equals.
  std::vector<std::uint64_t> block_hashes;
  std::vector<std::uint32_t> hash_slots;
  std::vector<std::uint32_t> block_source;
  /// The basis-state fold of a statevector's apply_plan (both precisions):
  /// the indices of the amplitudes that are not +0 (the support), and a
  /// membership bitmap over the register, one bit per amplitude.
  std::vector<std::uint64_t> fold_support;
  std::vector<std::uint64_t> fold_members;
  // complex64 mirrors used by the float-precision executors (the plan does
  // not know the precision of the engine that will run it).
  std::vector<std::complex<float>> block_f32;
  std::vector<std::complex<float>> block_out_f32;
  std::vector<std::complex<float>> packed_in_f32;
  std::vector<std::complex<float>> packed_out_f32;
};

/// Precision-keyed views of the scratch arena and of a CompiledOp's
/// materialized tables: the templated engines pick their buffers through
/// these so one executor body serves both scalars.
template <typename Real>
std::vector<std::complex<Real>>& scratch_block(ExecutionScratch& s);
template <>
inline std::vector<Amplitude>& scratch_block<double>(ExecutionScratch& s) {
  return s.block;
}
template <>
inline std::vector<std::complex<float>>& scratch_block<float>(
    ExecutionScratch& s) {
  return s.block_f32;
}

template <typename Real>
std::vector<std::complex<Real>>& scratch_block_out(ExecutionScratch& s);
template <>
inline std::vector<Amplitude>& scratch_block_out<double>(ExecutionScratch& s) {
  return s.block_out;
}
template <>
inline std::vector<std::complex<float>>& scratch_block_out<float>(
    ExecutionScratch& s) {
  return s.block_out_f32;
}

template <typename Real>
std::vector<std::complex<Real>>& scratch_packed_in(ExecutionScratch& s);
template <>
inline std::vector<Amplitude>& scratch_packed_in<double>(ExecutionScratch& s) {
  return s.packed_in;
}
template <>
inline std::vector<std::complex<float>>& scratch_packed_in<float>(
    ExecutionScratch& s) {
  return s.packed_in_f32;
}

template <typename Real>
std::vector<std::complex<Real>>& scratch_packed_out(ExecutionScratch& s);
template <>
inline std::vector<Amplitude>& scratch_packed_out<double>(
    ExecutionScratch& s) {
  return s.packed_out;
}
template <>
inline std::vector<std::complex<float>>& scratch_packed_out<float>(
    ExecutionScratch& s) {
  return s.packed_out_f32;
}

/// The diagonal table of a kDiagonal op at the executor's precision.
template <typename Real>
const std::complex<Real>* compiled_diagonal(const CompiledOp& op);
template <>
inline const Amplitude* compiled_diagonal<double>(const CompiledOp& op) {
  return op.diagonal.data();
}
template <>
inline const std::complex<float>* compiled_diagonal<float>(
    const CompiledOp& op) {
  return op.diagonal_f32().data();
}

/// The dense matrix of a kBlock op (row-major) at the executor's precision.
template <typename Real>
const std::complex<Real>* compiled_matrix_data(const CompiledOp& op);
template <>
inline const Amplitude* compiled_matrix_data<double>(const CompiledOp& op) {
  return op.gate.matrix.data();
}
template <>
inline const std::complex<float>* compiled_matrix_data<float>(
    const CompiledOp& op) {
  return op.matrix_f32().data();
}

/// A compiled, immutable, execute-many circuit.
class ExecutionPlan {
 public:
  std::size_t num_qubits() const { return num_qubits_; }
  double global_phase() const { return global_phase_; }
  const std::vector<CompiledOp>& ops() const { return ops_; }
  const CompilerStats& stats() const { return stats_; }
  /// True when the plan was compiled with preserve_noise_slots — the
  /// precondition of every apply_plan_with_noise walk.
  bool preserves_noise_slots() const { return noise_slots_; }

  /// The plan's scratch arena.  Mutable by design: executing a plan reuses
  /// these buffers, which is why one plan must not be executed from two
  /// threads at once (parallelism lives *inside* the kernels).
  ExecutionScratch& scratch() const { return scratch_; }

  /// Approximate resident size of the plan: compiled matrices, diagonal
  /// tables, offset/base enumerations, and the scratch arena's current
  /// capacity.  The byte-budget accounting unit of the serving layer's
  /// plan cache (the lazily-built complex64 mirrors are counted as if
  /// materialized, so a cached plan cannot quietly outgrow its admission
  /// size on first float execution).
  std::size_t memory_bytes() const;

 private:
  friend ExecutionPlan compile_circuit(const Circuit&, const CompilerOptions&);

  std::size_t num_qubits_ = 0;
  double global_phase_ = 0.0;
  bool noise_slots_ = false;
  std::vector<CompiledOp> ops_;
  CompilerStats stats_;
  mutable ExecutionScratch scratch_;
};

/// Lowers \p circuit into an ExecutionPlan under explicit options (pass
/// compiler_options_from_env() to honour the QTDA_FUSE override, as the
/// estimator does).
ExecutionPlan compile_circuit(const Circuit& circuit,
                              const CompilerOptions& options);

}  // namespace qtda
