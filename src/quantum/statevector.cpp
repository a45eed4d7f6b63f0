#include "quantum/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "quantum/executor.hpp"
#include "quantum/noise.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/simd_kernels.hpp"

namespace qtda {

namespace {

/// Below this state size the measurement reductions run serially: the
/// parallel fork/join overhead dominates (measured: parallel dispatch on
/// 2^14-amplitude states made the exact density-matrix ablation ~10x slower
/// than serial kernels).
constexpr std::uint64_t kParallelThreshold = 1ULL << 17;

/// Contiguous runs shorter than this skip the per-run pair/four-point
/// sweeps (the bit-0/1 sweep or the scalar loops take them): a
/// sub-vector-width run per dispatch call costs more than it saves.  Safe to
/// mix freely with the vector paths — they are bitwise identical by
/// construction.
constexpr std::uint64_t kMinSimdRun = 4;

/// Reusable per-thread buffers for the non-plan entry points: apply_unitary
/// and apply_operator used to allocate their gather/scatter scratch on every
/// call; this arena persists for the thread's lifetime.  Plan execution
/// uses the plan's own arena, not this one.  It holds both precisions'
/// buffers, like a plan's.
ExecutionScratch& thread_scratch() {
  thread_local ExecutionScratch scratch;
  return scratch;
}

template <typename C>
std::vector<C>& thread_matrix_scratch() {
  thread_local std::vector<C> buffer;
  return buffer;
}

/// Row-major matrix entries at the engine's precision: the double engine
/// reads the ComplexMatrix storage directly (no copy — and no change to the
/// historical arithmetic); the float engine narrows into a reusable scratch.
template <typename Real>
const std::complex<Real>* cast_matrix(const ComplexMatrix& u,
                                      std::vector<std::complex<Real>>& scratch);

template <>
const Amplitude* cast_matrix<double>(const ComplexMatrix& u,
                                     std::vector<Amplitude>&) {
  return u.data();
}

template <>
const std::complex<float>* cast_matrix<float>(
    const ComplexMatrix& u, std::vector<std::complex<float>>& scratch) {
  const std::size_t n = u.rows() * u.cols();
  scratch.resize(n);
  const Amplitude* src = u.data();
  for (std::size_t i = 0; i < n; ++i)
    scratch[i] = std::complex<float>(static_cast<float>(src[i].real()),
                                     static_cast<float>(src[i].imag()));
  return scratch.data();
}

/// Batch apply at the engine's precision (LinearOperator's native rail for
/// double, its complex64 rail for float).
inline void operator_apply_batch(const LinearOperator& op, const Amplitude* in,
                                 Amplitude* out, std::size_t count) {
  op.apply_batch(in, out, count);
}
inline void operator_apply_batch(const LinearOperator& op,
                                 const std::complex<float>* in,
                                 std::complex<float>* out, std::size_t count) {
  op.apply_batch_f32(in, out, count);
}

/// 64-bit hash of \p bytes (a multiple of 8, as every amplitude block is):
/// four multiply-rotate lanes over 8-byte words, then a final avalanche,
/// so the low bits that index the table depend on every input bit.  Equal
/// hashes are confirmed with memcmp; the hash only has to be fast.
std::uint64_t block_hash(const unsigned char* bytes, std::size_t size) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto mix = [](std::uint64_t h, const unsigned char* word) {
    std::uint64_t w = 0;
    std::memcpy(&w, word, sizeof(w));
    return (((h << 5) | (h >> 59)) ^ w) * kMul;
  };
  std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4;
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    h0 = mix(h0, bytes + i);
    h1 = mix(h1, bytes + i + 8);
    h2 = mix(h2, bytes + i + 16);
    h3 = mix(h3, bytes + i + 24);
  }
  for (; i + 8 <= size; i += 8) h0 = mix(h0, bytes + i);
  std::uint64_t h = h0 ^ ((h1 << 16) | (h1 >> 48)) ^
                    ((h2 << 32) | (h2 >> 32)) ^ ((h3 << 48) | (h3 >> 16));
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

/// Sizes the deduplication tables for a batch of \p count blocks and
/// empties the hash table (at most half full, so probes stay short).
void reset_dedup(ExecutionScratch& s, std::size_t count) {
  std::size_t slots = 1;
  while (slots < 2 * count) slots <<= 1;
  s.hash_slots.assign(slots, 0);
  s.block_hashes.resize(count);
  s.block_source.resize(count);
}

/// Looks up the block just gathered at distinct position \p distinct of
/// \p blocks (each \p block_bytes long) among the distinct blocks before
/// it.  Returns the position of the byte-identical earlier block, or
/// \p distinct after recording the block as new.
std::size_t find_or_add_block(ExecutionScratch& s, const unsigned char* blocks,
                              std::size_t block_bytes, std::size_t distinct) {
  const unsigned char* candidate = blocks + distinct * block_bytes;
  const std::uint64_t h = block_hash(candidate, block_bytes);
  const std::size_t mask = s.hash_slots.size() - 1;
  for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t entry = s.hash_slots[slot];
    if (entry == 0) {
      s.hash_slots[slot] = static_cast<std::uint32_t>(distinct + 1);
      s.block_hashes[distinct] = h;
      return distinct;
    }
    const std::size_t earlier = entry - 1;
    if (s.block_hashes[earlier] == h &&
        std::memcmp(blocks + earlier * block_bytes, candidate,
                    block_bytes) == 0)
      return earlier;
  }
}

/// The basis-state fold stops before an op that could grow the support
/// past dimension / kFoldSupportDivisor amplitudes.  An op at most doubles
/// the support list (a CNOT's list doubles before the entries it emptied
/// are dropped), so an op folds while twice the support fits under that
/// cap.  The crossover, measured on a 4-vCPU AVX-512 Xeon (float64, medians
/// of 5–9 repetitions, the divisor varied in a scratch build): an H wall on
/// every wire of 10–16 qubits ran as fast with divisor 8 as with 16, so an
/// op that takes the support from 1/16 to 1/8 of the register costs the
/// same folded as swept; one that takes it to 1/4 cost 15–25% more folded,
/// and folding to 1/2 doubled the wall's time.  From 17 qubits on, where
/// the support outgrows the cache, divisor 32 beat 16 by 5–30%.
/// BM_PurificationPrepFromBasis at n = 5–9 (t = 3, the support ending at
/// 1/2 to 1/8 of the register) read every divisor from 1 to 16 within
/// noise of each other and 1.1–3.9× faster than the sweep.  The
/// estimator's prefixes end at 2^−q of the register, so only q ≤ 3 meets
/// the cap.
constexpr std::uint64_t kFoldSupportDivisor = 16;

/// True when \p a is +0 + 0i, sign bits included: the only amplitude the
/// fold may leave outside its support.
template <typename C>
bool is_positive_zero(const C& a) {
  return a.real() == 0 && a.imag() == 0 && !std::signbit(a.real()) &&
         !std::signbit(a.imag());
}

bool has_member(const std::vector<std::uint64_t>& members, std::uint64_t i) {
  return (members[i >> 6] >> (i & 63)) & 1;
}

/// Starts the fold of the basis state |basis⟩ on a register of \p dim
/// amplitudes: the support is basis alone.
void begin_fold(ExecutionScratch& s, std::uint64_t dim, std::uint64_t basis) {
  s.fold_support.assign(1, basis);
  s.fold_members.assign(static_cast<std::size_t>((dim + 63) / 64), 0);
  s.fold_members[basis >> 6] |= std::uint64_t{1} << (basis & 63);
}

/// Applies the single-qubit op \p op to the pairs of amp[0..dim) that meet
/// the support in \p s, with the scalar pair update (which every sweep
/// level matches bit for bit), then drops the entries it left at +0.
/// Outside the support every amplitude is +0, and a pair of them is left
/// alone here; the sweep would give such a pair the op's update of (+0, +0),
/// so the op folds only when that update is +0 too.  Returns false, having
/// touched nothing, when the op does not fold.
template <typename C>
bool fold_op(C* amp, std::uint64_t dim, const CompiledOp& op,
             ExecutionScratch& s) {
  if (op.kind != CompiledOp::Kind::kSingleQubit) return false;
  std::vector<std::uint64_t>& support = s.fold_support;
  if (2 * support.size() > dim / kFoldSupportDivisor) return false;
  const C u[4] = {static_cast<C>(op.u00), static_cast<C>(op.u01),
                  static_cast<C>(op.u10), static_cast<C>(op.u11)};
  C zero_pair[2] = {};
  simd::pair_sweep(SimdLevel::kScalar, zero_pair, zero_pair + 1, 1, u);
  if (!is_positive_zero(zero_pair[0]) || !is_positive_zero(zero_pair[1]))
    return false;

  const std::uint64_t mask = op.tmask;
  const std::uint64_t cmask = op.cmask;
  std::vector<std::uint64_t>& members = s.fold_members;
  const std::size_t size = support.size();
  for (std::size_t k = 0; k < size; ++k) {
    const std::uint64_t i = support[k];
    if ((i & cmask) != cmask) continue;
    const std::uint64_t partner = i ^ mask;
    const bool partner_member = has_member(members, partner);
    // A pair with both members in the support runs once, from its lower
    // member.
    if (partner_member && (i & mask) != 0) continue;
    const std::uint64_t low = i & ~mask;
    simd::pair_sweep(SimdLevel::kScalar, amp + low, amp + (low | mask), 1, u);
    if (!partner_member) {
      support.push_back(partner);
      members[partner >> 6] |= std::uint64_t{1} << (partner & 63);
    }
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < support.size(); ++k) {
    const std::uint64_t i = support[k];
    if (is_positive_zero(amp[i])) {
      members[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    } else {
      support[kept++] = i;
    }
  }
  support.resize(kept);
  return true;
}

}  // namespace

template <typename Real>
BasicStatevector<Real>::BasicStatevector(std::size_t num_qubits)
    : num_qubits_(num_qubits),
      amplitudes_(std::uint64_t{1} << num_qubits, C{}),
      basis_(0) {
  QTDA_REQUIRE(num_qubits > 0 && num_qubits <= 30,
               "statevector width " << num_qubits << " unsupported");
  amplitudes_[0] = C{Real{1}, Real{0}};
}

template <typename Real>
typename BasicStatevector<Real>::C BasicStatevector<Real>::amplitude(
    std::uint64_t index) const {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  return amplitudes_[index];
}

template <typename Real>
void BasicStatevector<Real>::set_basis_state(std::uint64_t index) {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  if (basis_) {
    amplitudes_[*basis_] = C{};
  } else {
    std::fill(amplitudes_.begin(), amplitudes_.end(), C{});
  }
  amplitudes_[index] = C{Real{1}, Real{0}};
  basis_ = index;
}

template <typename Real>
void BasicStatevector<Real>::set_amplitudes(std::vector<C> amplitudes) {
  QTDA_REQUIRE(amplitudes.size() == dimension(),
               "amplitude vector length mismatch");
  amplitudes_ = std::move(amplitudes);
  basis_.reset();
}

template <typename Real>
void BasicStatevector<Real>::apply_gate(const Gate& gate) {
  if (gate.kind == GateKind::kUnitary) {
    apply_unitary(gate.matrix, gate.targets, gate.controls);
  } else if (gate.kind == GateKind::kOperator) {
    apply_operator(*gate.op, gate.targets, gate.controls);
  } else {
    apply_single_qubit(gate.single_qubit_matrix(), gate.targets.at(0),
                       gate.controls);
  }
}

template <typename Real>
void BasicStatevector<Real>::apply_single_qubit(
    const ComplexMatrix& u, std::size_t target,
    const std::vector<std::size_t>& controls) {
  QTDA_REQUIRE(u.rows() == 2 && u.cols() == 2, "expected a 2x2 matrix");
  QTDA_REQUIRE(target < num_qubits_, "target out of range");
  const std::uint64_t mask = qubit_mask(target, num_qubits_);
  std::uint64_t cmask = 0;
  for (std::size_t c : controls) {
    QTDA_REQUIRE(c < num_qubits_ && c != target, "bad control qubit");
    cmask |= qubit_mask(c, num_qubits_);
  }
  single_qubit_kernel(static_cast<C>(u(0, 0)), static_cast<C>(u(0, 1)),
                      static_cast<C>(u(1, 0)), static_cast<C>(u(1, 1)), mask,
                      cmask);
}

template <typename Real>
void BasicStatevector<Real>::single_qubit_kernel(C u00, C u01, C u10, C u11,
                                                 std::uint64_t mask,
                                                 std::uint64_t cmask) {
  basis_.reset();
  const std::uint64_t dim = dimension();
  C* amp = amplitudes_.data();
  const C u[4] = {u00, u01, u10, u11};
  const SimdLevel level = active_simd_level();

  // Only the control-satisfied pairs are visited.  They come in contiguous
  // runs as long as the lowest target or control bit; each run goes to the
  // pair sweep (every level is bitwise identical to the scalar update, see
  // simd_kernels.hpp), and runs of one or two pairs to the bit-0/1 sweep.
  const std::uint64_t touched = mask | cmask;
  const std::uint64_t run = touched & (~touched + 1);
  if (run < kMinSimdRun) {
    simd::bit01_pair_sweep(level, amp, dim, mask, cmask, u);
    return;
  }
  for_each_block_base(dim, mask | (run - 1), cmask, [&](std::uint64_t base) {
    simd::pair_sweep(level, amp + base, amp + base + mask, run, u);
  });
}

template <typename Real>
void BasicStatevector<Real>::apply_unitary(
    const ComplexMatrix& u, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  if (targets.size() == 1) {
    apply_single_qubit(u, targets[0], controls);
    return;
  }
  const std::size_t m = targets.size();
  QTDA_REQUIRE(m <= 20, "dense unitary over too many targets");
  const std::uint64_t block = std::uint64_t{1} << m;
  QTDA_REQUIRE(u.rows() == block && u.cols() == block,
               "unitary shape does not match target count");
  const TargetLayout layout =
      build_target_layout(targets, controls, num_qubits_);
  ExecutionScratch& scratch = thread_scratch();
  block_kernel(cast_matrix<Real>(u, thread_matrix_scratch<C>()), layout.tmask,
               layout.cmask, block_offsets(layout.local_bit_mask),
               scratch_block<Real>(scratch), scratch_block_out<Real>(scratch));
}

template <typename Real>
void BasicStatevector<Real>::block_kernel(
    const C* u, std::uint64_t tmask, std::uint64_t cmask,
    const std::vector<std::uint64_t>& offset, std::vector<C>& scratch,
    std::vector<C>& scratch_out) {
  basis_.reset();
  const std::uint64_t block = offset.size();
  C* amp = amplitudes_.data();

  // Gather each control-satisfied block, multiply, scatter.  Per-row
  // accumulation order matches the scalar row-dot at every level (see
  // simd_kernels.hpp), so mixing paths cannot change results.
  const SimdLevel level = active_simd_level();
  scratch.resize(block);
  scratch_out.resize(block);
  for_each_block_base(dimension(), tmask, cmask, [&](std::uint64_t i) {
    for (std::uint64_t l = 0; l < block; ++l) scratch[l] = amp[i | offset[l]];
    simd::block_matvec(level, u, scratch.data(), scratch_out.data(), block);
    for (std::uint64_t r = 0; r < block; ++r)
      amp[i | offset[r]] = scratch_out[r];
  });
}

template <typename Real>
void BasicStatevector<Real>::apply_operator(
    const LinearOperator& op, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  const std::size_t m = targets.size();
  QTDA_REQUIRE(m >= 1 && m <= num_qubits_, "bad operator target count");
  const std::uint64_t block = std::uint64_t{1} << m;
  QTDA_REQUIRE(op.dimension() == block,
               "operator dimension " << op.dimension() << " does not match "
                                     << m << " targets");
  const TargetLayout layout =
      build_target_layout(targets, controls, num_qubits_);

  // Blocks are contiguous slices exactly when the targets are the trailing
  // wires in order (the sampled-basis QPE layout) — then gather/scatter is
  // a memcpy.
  const bool contiguous = targets_are_trailing(targets, num_qubits_);
  std::vector<std::uint64_t> offset;
  if (!contiguous) offset = block_offsets(layout.local_bit_mask);

  const std::vector<std::uint64_t> bases =
      enumerate_block_bases(dimension(), layout.tmask, layout.cmask);
  ExecutionScratch& scratch = thread_scratch();
  operator_kernel(op, contiguous, offset, bases, scratch);
  // Reuse is worth keeping only at moderate size: the batch buffers grow to
  // the ~64 MB batch cap on large states, and a thread_local would pin that
  // for the thread's lifetime.  (Plan execution bounds the same buffers to
  // the plan's lifetime via its arena instead.)
  constexpr std::size_t kRetainedAmplitudeCap = std::size_t{1} << 18;
  if (scratch_packed_in<Real>(scratch).capacity() > kRetainedAmplitudeCap) {
    scratch_packed_in<Real>(scratch) = {};
    scratch_packed_out<Real>(scratch) = {};
    scratch.block_hashes = {};
    scratch.hash_slots = {};
    scratch.block_source = {};
  }
}

template <typename Real>
void BasicStatevector<Real>::operator_kernel(
    const LinearOperator& op, bool contiguous,
    const std::vector<std::uint64_t>& offset,
    const std::vector<std::uint64_t>& bases, ExecutionScratch& scratch) {
  basis_.reset();
  const std::uint64_t block = op.dimension();
  const std::size_t block_bytes = static_cast<std::size_t>(block) * sizeof(C);
  // Batch blocks through packed buffers so the operator can amortize setup
  // and parallelize across blocks; the batch cap bounds the extra memory at
  // ~2×64 MB regardless of register width.
  constexpr std::uint64_t kBatchAmplitudeCap = std::uint64_t{1} << 22;
  const std::size_t blocks_per_batch = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, kBatchAmplitudeCap / block));
  std::vector<C>& packed_in = scratch_packed_in<Real>(scratch);
  std::vector<C>& packed_out = scratch_packed_out<Real>(scratch);
  C* amp = amplitudes_.data();
  for (std::size_t first = 0; first < bases.size();
       first += blocks_per_batch) {
    const std::size_t count =
        std::min(blocks_per_batch, bases.size() - first);
    // Gather each block into the next free distinct slot and keep it only
    // if no earlier block has the same bytes.  apply_batch gives a block
    // the same bytes at any batch width or position, so equal inputs get
    // equal outputs and each duplicate takes its twin's result.  (A
    // precision wire is still |+⟩ until its own power runs, so most QPE
    // powers see many equal blocks.)
    packed_in.resize(count * block);
    reset_dedup(scratch, count);
    std::size_t distinct = 0;
    for (std::size_t b = 0; b < count; ++b) {
      const std::uint64_t base = bases[first + b];
      C* slot = packed_in.data() + distinct * block;
      if (contiguous) {
        std::memcpy(slot, amp + base, block_bytes);
      } else {
        for (std::uint64_t l = 0; l < block; ++l)
          slot[l] = amp[base | offset[l]];
      }
      const std::size_t source = find_or_add_block(
          scratch, reinterpret_cast<const unsigned char*>(packed_in.data()),
          block_bytes, distinct);
      scratch.block_source[b] = static_cast<std::uint32_t>(source);
      if (source == distinct) ++distinct;
    }
    // Sized for every block, not only the distinct ones: the distinct
    // count grows power by power (1/4, 1/2, 1 of the blocks at t = 3), and
    // regrowing the buffer each time raised cold-features' peak RSS by
    // 2.4 MiB.
    packed_out.resize(count * block);
    operator_apply_batch(op, packed_in.data(), packed_out.data(), distinct);
    for (std::size_t b = 0; b < count; ++b) {
      const std::uint64_t base = bases[first + b];
      const C* result = packed_out.data() + scratch.block_source[b] * block;
      if (contiguous) {
        std::memcpy(amp + base, result, block_bytes);
      } else {
        for (std::uint64_t l = 0; l < block; ++l)
          amp[base | offset[l]] = result[l];
      }
    }
    QTDA_COUNTER_ADD("exec.operator.rhs", count);
    QTDA_COUNTER_ADD("exec.operator.rhs_skipped", count - distinct);
  }
}

template <typename Real>
void BasicStatevector<Real>::two_qubit_kernel(const C* u,
                                              std::uint64_t mask_high,
                                              std::uint64_t mask_low) {
  basis_.reset();
  // mask_high carries local bit 1 (targets[0]), mask_low local bit 0
  // (targets[1]) — the gather order of block_kernel, so results match the
  // generic path bit for bit.
  const std::uint64_t m_small = std::min(mask_high, mask_low);
  const std::uint64_t m_big = std::max(mask_high, mask_low);
  const std::uint64_t dim = dimension();
  C* amp = amplitudes_.data();

  // Vector path: the innermost run [b, b+m_small) gives four contiguous
  // streams at constant offsets — the four-point sweep (bitwise identical
  // to the scalar accumulation chains below).
  const SimdLevel level = active_simd_level();
  if (level != SimdLevel::kScalar && m_small >= kMinSimdRun) {
    for (std::uint64_t a = 0; a < dim; a += m_big << 1) {
      for (std::uint64_t b = a; b < a + m_big; b += m_small << 1) {
        simd::four_point_sweep(level, amp + b, amp + (b | mask_low),
                               amp + (b | mask_high),
                               amp + (b | mask_high | mask_low), m_small, u);
      }
    }
    return;
  }

  const C* u0 = u;
  const C* u1 = u + 4;
  const C* u2 = u + 8;
  const C* u3 = u + 12;

  const auto body = [&](std::uint64_t i) {
    const std::uint64_t i0 = i;
    const std::uint64_t i1 = i | mask_low;
    const std::uint64_t i2 = i | mask_high;
    const std::uint64_t i3 = i | mask_high | mask_low;
    const C a0 = amp[i0];
    const C a1 = amp[i1];
    const C a2 = amp[i2];
    const C a3 = amp[i3];
    // Accumulation order identical to block_kernel's row loop.
    C acc0{};
    acc0 += u0[0] * a0; acc0 += u0[1] * a1; acc0 += u0[2] * a2; acc0 += u0[3] * a3;
    C acc1{};
    acc1 += u1[0] * a0; acc1 += u1[1] * a1; acc1 += u1[2] * a2; acc1 += u1[3] * a3;
    C acc2{};
    acc2 += u2[0] * a0; acc2 += u2[1] * a1; acc2 += u2[2] * a2; acc2 += u2[3] * a3;
    C acc3{};
    acc3 += u3[0] * a0; acc3 += u3[1] * a1; acc3 += u3[2] * a2; acc3 += u3[3] * a3;
    amp[i0] = acc0;
    amp[i1] = acc1;
    amp[i2] = acc2;
    amp[i3] = acc3;
  };

  // Nested strided loops keep the innermost run contiguous (length
  // m_small), which is what lets the compiler pipeline the complex
  // arithmetic — a flat compressed-index loop ran ~2× slower.
  for (std::uint64_t a = 0; a < dim; a += m_big << 1) {
    for (std::uint64_t b = a; b < a + m_big; b += m_small << 1) {
      for (std::uint64_t i = b; i < b + m_small; ++i) body(i);
    }
  }
}

template <typename Real>
void BasicStatevector<Real>::diagonal_kernel(const C* table,
                                             const DiagonalExtract& extract) {
  basis_.reset();
  // One multiply per amplitude, however many gates the diagonal absorbed:
  // the big fusion win of the controlled-phase-dominated QPE networks.
  const std::uint64_t dim = dimension();
  C* amp = amplitudes_.data();
  const SimdLevel level = active_simd_level();
  simd::diagonal_pass(level, amp, 0, dim, extract, table);
}

template <typename Real>
void BasicStatevector<Real>::apply_plan(const ExecutionPlan& plan) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits_,
               "plan width " << plan.num_qubits()
                             << " does not match state width " << num_qubits_);
  ExecutionScratch& scratch = plan.scratch();
  bool folding = basis_.has_value();
  if (folding) begin_fold(scratch, dimension(), *basis_);
  basis_.reset();
  std::uint64_t folded = 0;
  for_each_plan_op_accounted(plan, [&](const CompiledOp& op) {
    if (folding) {
      if (fold_op(amplitudes_.data(), dimension(), op, scratch)) {
        ++folded;
        return;
      }
      folding = false;
    }
    apply_plan_op(op, scratch);
  });
  QTDA_COUNTER_ADD("exec.ops.folded", folded);
  if (plan.global_phase() != 0.0) apply_global_phase(plan.global_phase());
}

template <typename Real>
void BasicStatevector<Real>::apply_plan_with_noise(const ExecutionPlan& plan,
                                                   const NoiseModel& noise,
                                                   Rng& rng) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits_,
               "plan width " << plan.num_qubits()
                             << " does not match state width " << num_qubits_);
  ExecutionScratch& scratch = plan.scratch();
  for_each_plan_op_with_noise(
      plan, noise, [&](const CompiledOp& op) { apply_plan_op(op, scratch); },
      [&](std::size_t q, double p) {
        maybe_apply_depolarizing(*this, q, p, rng);
      });
}

template <typename Real>
void BasicStatevector<Real>::apply_plan_op(const CompiledOp& op,
                                           ExecutionScratch& scratch) {
  switch (op.kind) {
    case CompiledOp::Kind::kSingleQubit:
      single_qubit_kernel(static_cast<C>(op.u00), static_cast<C>(op.u01),
                          static_cast<C>(op.u10), static_cast<C>(op.u11),
                          op.tmask, op.cmask);
      break;
    case CompiledOp::Kind::kBlock:
      if (op.offsets.size() == 4 && op.cmask == 0) {
        two_qubit_kernel(compiled_matrix_data<Real>(op), op.offsets[2],
                         op.offsets[1]);
      } else {
        block_kernel(compiled_matrix_data<Real>(op), op.tmask, op.cmask,
                     op.offsets, scratch_block<Real>(scratch),
                     scratch_block_out<Real>(scratch));
      }
      break;
    case CompiledOp::Kind::kDiagonal:
      diagonal_kernel(compiled_diagonal<Real>(op), op.diag_extract);
      break;
    case CompiledOp::Kind::kOperator:
      operator_kernel(*op.gate.op, op.contiguous, op.offsets, op.bases,
                      scratch);
      break;
  }
}

template <typename Real>
void BasicStatevector<Real>::apply_global_phase(double phi) {
  // cos/sin evaluate in double at every precision; only the stored factor
  // narrows.
  const C factor{static_cast<Real>(std::cos(phi)),
                 static_cast<Real>(std::sin(phi))};
  for (C& a : amplitudes_) a *= factor;
  basis_.reset();
}

template <typename Real>
double BasicStatevector<Real>::probability(std::uint64_t index) const {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  return norm_sq_as_double(amplitudes_[index]);
}

template <typename Real>
std::vector<double> BasicStatevector<Real>::probabilities() const {
  std::vector<double> p(amplitudes_.size());
  parallel_for_chunked(
      0, amplitudes_.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          p[i] = norm_sq_as_double(amplitudes_[i]);
      },
      kParallelThreshold);
  return p;
}

template <typename Real>
std::vector<double> BasicStatevector<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  const std::vector<std::uint64_t> bit_mask =
      marginal_bit_masks(qubits, num_qubits_);
  const std::size_t m = qubits.size();
  const std::uint64_t out_dim = std::uint64_t{1} << m;
  // Chunk-local histograms merged in index order: the sampling cumulative
  // sums downstream need run-to-run reproducible totals.
  std::vector<double> marginal(out_dim, 0.0);
  parallel_reduce_ordered(
      0, static_cast<std::size_t>(dimension()), marginal,
      std::vector<double>(out_dim, 0.0),
      [&](std::size_t i, std::vector<double>& into) {
        const double p = norm_sq_as_double(amplitudes_[i]);
        if (p == 0.0) return;
        std::uint64_t outcome = 0;
        for (std::size_t j = 0; j < m; ++j)
          if (i & bit_mask[j]) outcome |= std::uint64_t{1} << j;
        into[outcome] += p;
      },
      [out_dim](std::vector<double>& total, const std::vector<double>& part) {
        for (std::uint64_t o = 0; o < out_dim; ++o) total[o] += part[o];
      },
      kParallelThreshold);
  return marginal;
}

template <typename Real>
std::vector<std::uint64_t> BasicStatevector<Real>::sample_counts(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return multinomial_sample(marginal_probabilities(qubits), shots, rng);
}

template <typename Real>
double BasicStatevector<Real>::norm_squared() const {
  double s = 0.0;
  parallel_reduce_ordered(
      0, static_cast<std::size_t>(dimension()), s, 0.0,
      [&](std::size_t i, double& acc) {
        acc += norm_sq_as_double(amplitudes_[i]);
      },
      [](double& total, double part) { total += part; }, kParallelThreshold);
  return s;
}

template <typename Real>
void BasicStatevector<Real>::normalize() {
  const double n2 = norm_squared();
  QTDA_REQUIRE(n2 > 0.0, "cannot normalize the zero vector");
  const double inv = 1.0 / std::sqrt(n2);
  const Real scale = static_cast<Real>(inv);
  for (C& a : amplitudes_) a *= scale;
  basis_.reset();
}

template <typename Real>
Amplitude BasicStatevector<Real>::inner_product(
    const BasicStatevector& other) const {
  QTDA_REQUIRE(other.num_qubits() == num_qubits_,
               "inner product width mismatch");
  Amplitude acc{};
  for (std::uint64_t i = 0; i < dimension(); ++i)
    acc += std::conj(widen(amplitudes_[i])) * widen(other.amplitudes_[i]);
  return acc;
}

template class BasicStatevector<double>;
template class BasicStatevector<float>;

std::vector<std::uint64_t> multinomial_sample(
    const std::vector<double>& distribution, std::size_t shots, Rng& rng) {
  QTDA_REQUIRE(!distribution.empty(), "empty distribution");
  std::vector<double> cumulative(distribution.size());
  double total = 0.0;
  for (std::size_t i = 0; i < distribution.size(); ++i) {
    QTDA_REQUIRE(distribution[i] >= -1e-12,
                 "negative probability " << distribution[i]);
    total += std::max(distribution[i], 0.0);
    cumulative[i] = total;
  }
  QTDA_REQUIRE(total > 0.0, "distribution sums to zero");
  std::vector<std::uint64_t> counts(distribution.size(), 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double u = rng.uniform() * total;
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t idx =
        std::min<std::size_t>(std::distance(cumulative.begin(), it),
                              distribution.size() - 1);
    ++counts[idx];
  }
  return counts;
}

}  // namespace qtda
