/// \file register_layout.hpp
/// \brief Shared target/control mask building and block enumeration for the
/// simulation engines.
///
/// An unfused compiled plan replays the state vector's gate primitives
/// *bit for bit*, which starts with decomposing the register identically:
/// the same target masks (MSB-first wire convention of types.hpp), the same
/// local-offset tables, and the same block-column base enumeration, in the
/// same order.  The engine's gate kernels, its plan fast path and the
/// compiler all call these helpers so the decomposition exists exactly
/// once.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "quantum/types.hpp"

namespace qtda {

/// Masks of an ordered target sub-register plus its controls.
struct TargetLayout {
  std::uint64_t tmask = 0;  ///< union of all target bits
  std::uint64_t cmask = 0;  ///< union of all control bits (all-ones condition)
  /// local_bit_mask[j] is the global bit of local bit j (LSB-first), i.e. of
  /// targets[m−1−j]: the first listed target is the most significant local
  /// bit, mirroring the global convention.
  std::vector<std::uint64_t> local_bit_mask;
};

/// Validates targets/controls against the register width and builds the
/// masks.  Throws on out-of-range wires, duplicate targets, and controls
/// overlapping targets.
inline TargetLayout build_target_layout(
    const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls, std::size_t num_qubits) {
  const std::size_t m = targets.size();
  TargetLayout layout;
  layout.local_bit_mask.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t q = targets[m - 1 - j];
    QTDA_REQUIRE(q < num_qubits, "target out of range");
    layout.local_bit_mask[j] = qubit_mask(q, num_qubits);
    QTDA_REQUIRE((layout.tmask & layout.local_bit_mask[j]) == 0,
                 "duplicate target");
    layout.tmask |= layout.local_bit_mask[j];
  }
  for (std::size_t c : controls) {
    QTDA_REQUIRE(c < num_qubits, "control out of range");
    const std::uint64_t bit = qubit_mask(c, num_qubits);
    QTDA_REQUIRE((bit & layout.tmask) == 0, "control overlaps target");
    layout.cmask |= bit;
  }
  return layout;
}

/// Global offset of every local block index l ∈ [0, 2^m): the scatter map
/// of a gathered sub-register block.
inline std::vector<std::uint64_t> block_offsets(
    const std::vector<std::uint64_t>& local_bit_mask) {
  const std::uint64_t block = std::uint64_t{1} << local_bit_mask.size();
  std::vector<std::uint64_t> offset(block);
  for (std::uint64_t l = 0; l < block; ++l) {
    std::uint64_t off = 0;
    for (std::size_t j = 0; j < local_bit_mask.size(); ++j)
      if ((l >> j) & 1ULL) off |= local_bit_mask[j];
    offset[l] = off;
  }
  return offset;
}

/// True when the ordered targets are the trailing wires of the register —
/// then sub-register blocks are contiguous index ranges and gather/scatter
/// is a memcpy (the sampled-basis QPE layout).
inline bool targets_are_trailing(const std::vector<std::size_t>& targets,
                                 std::size_t num_qubits) {
  for (std::size_t j = 0; j < targets.size(); ++j)
    if (targets[j] != num_qubits - targets.size() + j) return false;
  return true;
}

/// The subset-increment step: advances \p sub to the next larger subset of
/// \p free_mask's bits (the carry runs through the bits outside it); false
/// once every subset has been visited.
inline bool next_subset(std::uint64_t& sub, std::uint64_t free_mask) {
  sub = ((sub | ~free_mask) + 1) & free_mask;
  return sub != 0;
}

/// Calls f(base) for every block base: every setting of the non-target
/// bits whose control bits are all one, in increasing order, so a
/// controlled gate costs only the blocks it changes.  The single-qubit,
/// block and operator kernels all walk their blocks this way, and the gate
/// walk and the plan path must walk blocks identically.
template <typename F>
inline void for_each_block_base(std::uint64_t dim, std::uint64_t tmask,
                                std::uint64_t cmask, F&& f) {
  const std::uint64_t free_mask = (dim - 1) & ~tmask & ~cmask;
  std::uint64_t sub = 0;
  do {
    f(sub | cmask);
  } while (next_subset(sub, free_mask));
}

/// The bases of for_each_block_base as a list (an operator plan keeps it).
inline std::vector<std::uint64_t> enumerate_block_bases(std::uint64_t dim,
                                                        std::uint64_t tmask,
                                                        std::uint64_t cmask) {
  std::vector<std::uint64_t> bases;
  for_each_block_base(dim, tmask, cmask,
                      [&](std::uint64_t base) { bases.push_back(base); });
  return bases;
}

/// Index-extraction recipe of a fused diagonal: the table index of global
/// index i is  OR_r (i >> shifts[r]) & masks[r].  Support wires that are
/// adjacent in the register compress into one (shift, mask) pair, so a
/// typical QPE diagonal (a precision run plus a system run) extracts its
/// index in two shifts — the difference between a fused-diagonal sweep
/// costing ~1 plain gate sweep and ~3.
struct DiagonalExtract {
  std::vector<std::uint64_t> shifts;
  std::vector<std::uint64_t> masks;  ///< pre-positioned at the local bits
};

/// Builds the extraction recipe from a TargetLayout's per-local-bit masks
/// (LSB-first; local bit j's global position strictly increases with j, so
/// runs of +1 steps compress).
inline DiagonalExtract build_diagonal_extract(
    const std::vector<std::uint64_t>& local_bit_mask) {
  DiagonalExtract extract;
  std::size_t j = 0;
  while (j < local_bit_mask.size()) {
    std::size_t g = 0;
    while ((local_bit_mask[j] >> g) != 1ULL) ++g;  // global bit position
    std::size_t length = 1;
    while (j + length < local_bit_mask.size() &&
           local_bit_mask[j + length] == local_bit_mask[j] << length)
      ++length;
    // Move global bits [g, g+length) to local bits [j, j+length); g ≥ j
    // because global positions grow at least as fast as local ones.
    extract.shifts.push_back(g - j);
    extract.masks.push_back(((std::uint64_t{1} << length) - 1) << j);
    j += length;
  }
  return extract;
}

/// Applies a fused diagonal to the amplitude run amp[0..count) holding the
/// global indices [first_index, first_index + count).  The run count is a
/// template parameter so the extraction fully unrolls.  This is the scalar
/// branch of simd::diagonal_pass, whose vector bodies must match it bit for
/// bit.  Templated over the complex amplitude type so the float32 engines
/// reuse the identical kernel shape.
template <std::size_t R, typename C>
inline void apply_diagonal_run_fixed(C* amp, std::uint64_t first_index,
                                     std::uint64_t count,
                                     const std::uint64_t* shifts,
                                     const std::uint64_t* masks,
                                     const C* table) {
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t i = first_index + k;
    std::uint64_t local = 0;
    for (std::size_t r = 0; r < R; ++r) local |= (i >> shifts[r]) & masks[r];
    amp[k] *= table[local];
  }
}

/// Runtime dispatch of apply_diagonal_run_fixed (a fused diagonal of width
/// ≤ 8 has at most 8 runs).
template <typename C>
inline void apply_diagonal_run(C* amp, std::uint64_t first_index,
                               std::uint64_t count,
                               const DiagonalExtract& extract,
                               const C* table) {
  const std::uint64_t* s = extract.shifts.data();
  const std::uint64_t* m = extract.masks.data();
  switch (extract.shifts.size()) {
    case 1: apply_diagonal_run_fixed<1>(amp, first_index, count, s, m, table); break;
    case 2: apply_diagonal_run_fixed<2>(amp, first_index, count, s, m, table); break;
    case 3: apply_diagonal_run_fixed<3>(amp, first_index, count, s, m, table); break;
    case 4: apply_diagonal_run_fixed<4>(amp, first_index, count, s, m, table); break;
    case 5: apply_diagonal_run_fixed<5>(amp, first_index, count, s, m, table); break;
    case 6: apply_diagonal_run_fixed<6>(amp, first_index, count, s, m, table); break;
    case 7: apply_diagonal_run_fixed<7>(amp, first_index, count, s, m, table); break;
    case 8: apply_diagonal_run_fixed<8>(amp, first_index, count, s, m, table); break;
    case 9: apply_diagonal_run_fixed<9>(amp, first_index, count, s, m, table); break;
    case 10: apply_diagonal_run_fixed<10>(amp, first_index, count, s, m, table); break;
    case 11: apply_diagonal_run_fixed<11>(amp, first_index, count, s, m, table); break;
    case 12: apply_diagonal_run_fixed<12>(amp, first_index, count, s, m, table); break;
    default:
      QTDA_REQUIRE(false, "fused diagonal wider than the supported maximum");
  }
}

/// Validates a marginal-measurement qubit list (all wires in range, outcome
/// space bounded) and returns the outcome bit masks: outcome bit j
/// (LSB-first) is qubits[m−1−j] (MSB-first listing).  Validation happens
/// for the whole list before any mask is built, so an out-of-range wire
/// throws instead of reaching qubit_mask's undefined shift.
inline std::vector<std::uint64_t> marginal_bit_masks(
    const std::vector<std::size_t>& qubits, std::size_t num_qubits) {
  QTDA_REQUIRE(!qubits.empty(), "marginal over an empty qubit set");
  const std::size_t m = qubits.size();
  QTDA_REQUIRE(m <= 26, "marginal outcome space too large");
  for (std::size_t q : qubits)
    QTDA_REQUIRE(q < num_qubits, "qubit out of range");
  std::vector<std::uint64_t> bit_mask(m);
  for (std::size_t j = 0; j < m; ++j)
    bit_mask[j] = qubit_mask(qubits[m - 1 - j], num_qubits);
  return bit_mask;
}

}  // namespace qtda
