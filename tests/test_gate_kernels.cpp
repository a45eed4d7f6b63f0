// The single-qubit and block gate kernels visit only the control-satisfied
// pairs and blocks.  Every path — simd::pair_sweep on the contiguous runs,
// simd::bit01_pair_sweep for targets and controls on bits 0–1 (at every SIMD
// level this CPU runs) and the engines' apply_single_qubit / apply_unitary
// (at the active level) — must equal a per-index reference loop byte for
// byte, untouched amplitudes included, on both precision rails.  The matrix
// is a general rotation whose four entries all have nonzero real and
// imaginary parts: a fused multiply-add anywhere changes its bytes, where H
// and X hide it.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bit_identity_scenarios.hpp"
#include "common/cpu_features.hpp"
#include "common/random.hpp"
#include "kernel_test_util.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/simd_kernels.hpp"
#include "quantum/statevector.hpp"

namespace qtda {
namespace {

using testing::levels_up_to_detected;
using testing::random_vector;
using testing::same_bytes;

template <typename R>
std::complex<R> narrow(const Amplitude& z) {
  return static_cast<std::complex<R>>(z);
}

/// The four entries {u00, u01, u10, u11} at precision R, cast as the
/// engines cast them.
template <typename R>
std::vector<std::complex<R>> rotation_entries() {
  const ComplexMatrix u = testing::general_rotation(0.9, 1.3, -0.55, 0.37);
  return {narrow<R>(u(0, 0)), narrow<R>(u(0, 1)), narrow<R>(u(1, 0)),
          narrow<R>(u(1, 1))};
}

/// Per-index reference: every i with the target bit clear and all control
/// bits set gets the textbook pair update; nothing else is written.
template <typename R>
void reference_single_qubit(std::vector<std::complex<R>>& amp,
                            const std::complex<R>* u, std::uint64_t mask,
                            std::uint64_t cmask) {
  for (std::uint64_t i = 0; i < amp.size(); ++i) {
    if ((i & mask) != 0 || (i & cmask) != cmask) continue;
    const std::complex<R> a0 = amp[i];
    const std::complex<R> a1 = amp[i | mask];
    amp[i] = u[0] * a0 + u[1] * a1;
    amp[i | mask] = u[2] * a0 + u[3] * a1;
  }
}

/// Every (n, target bit, control mask) case: registers of 1–12 qubits, every
/// target, and no control, each single control and every pair of controls
/// (which includes every pair with bit 0 or bit 1).
struct Case {
  std::size_t n;
  std::uint64_t mask;
  std::uint64_t cmask;
};

std::vector<Case> single_qubit_cases() {
  std::vector<Case> cases;
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint64_t mask = std::uint64_t{1} << t;
      cases.push_back({n, mask, 0});
      for (std::size_t c1 = 0; c1 < n; ++c1) {
        if (c1 == t) continue;
        const std::uint64_t b1 = std::uint64_t{1} << c1;
        cases.push_back({n, mask, b1});
        for (std::size_t c2 = c1 + 1; c2 < n; ++c2)
          if (c2 != t)
            cases.push_back({n, mask, b1 | (std::uint64_t{1} << c2)});
      }
    }
  }
  return cases;
}

::testing::AssertionResult case_failure(const char* path, SimdLevel level,
                                        const Case& c) {
  return ::testing::AssertionFailure()
         << path << " differs from the reference at level "
         << simd_level_name(level) << ": n=" << c.n << " mask=" << c.mask
         << " cmask=" << c.cmask;
}

/// pair_sweep over the control-satisfied runs (as the engine walks them)
/// and the bit-0/1 dispatcher over the whole register, at every level.
template <typename R>
::testing::AssertionResult sweeps_match_reference() {
  const std::vector<std::complex<R>> u = rotation_entries<R>();
  Rng rng(20261019);
  for (const Case& c : single_qubit_cases()) {
    const std::uint64_t dim = std::uint64_t{1} << c.n;
    const std::vector<std::complex<R>> input = random_vector<R>(dim, rng);
    std::vector<std::complex<R>> expected = input;
    reference_single_qubit(expected, u.data(), c.mask, c.cmask);
    const std::uint64_t touched = c.mask | c.cmask;
    const std::uint64_t run = touched & (~touched + 1);
    for (SimdLevel level : levels_up_to_detected()) {
      std::vector<std::complex<R>> swept = input;
      for_each_block_base(dim, c.mask | (run - 1), c.cmask,
                          [&](std::uint64_t base) {
                            simd::pair_sweep(level, swept.data() + base,
                                             swept.data() + base + c.mask,
                                             run, u.data());
                          });
      if (!same_bytes(swept, expected))
        return case_failure("pair_sweep", level, c);
      std::vector<std::complex<R>> low = input;
      simd::bit01_pair_sweep(level, low.data(), dim, c.mask, c.cmask,
                             u.data());
      if (!same_bytes(low, expected))
        return case_failure("bit01_pair_sweep", level, c);
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(GateKernels, SweepsEqualThePerIndexReferenceAtEveryLevel) {
  EXPECT_TRUE(sweeps_match_reference<double>());
  EXPECT_TRUE(sweeps_match_reference<float>());
}

/// The engine entry point at the active level (wires are MSB-first, so bit
/// b is wire n − 1 − b).
template <typename R>
::testing::AssertionResult apply_single_qubit_matches_reference() {
  const ComplexMatrix matrix =
      testing::general_rotation(0.9, 1.3, -0.55, 0.37);
  const std::vector<std::complex<R>> u = rotation_entries<R>();
  Rng rng(42);
  for (const Case& c : single_qubit_cases()) {
    const std::uint64_t dim = std::uint64_t{1} << c.n;
    const std::vector<std::complex<R>> input = random_vector<R>(dim, rng);
    std::vector<std::complex<R>> expected = input;
    reference_single_qubit(expected, u.data(), c.mask, c.cmask);
    std::size_t target = 0;
    std::vector<std::size_t> controls;
    for (std::size_t b = 0; b < c.n; ++b) {
      if ((c.mask >> b) & 1) target = c.n - 1 - b;
      if ((c.cmask >> b) & 1) controls.push_back(c.n - 1 - b);
    }
    BasicStatevector<R> psi(c.n);
    psi.set_amplitudes(input);
    psi.apply_single_qubit(matrix, target, controls);
    if (!same_bytes(psi.amplitudes(), expected))
      return case_failure("apply_single_qubit", active_simd_level(), c);
  }
  return ::testing::AssertionSuccess();
}

TEST(GateKernels, ApplySingleQubitEqualsThePerIndexReference) {
  EXPECT_TRUE(apply_single_qubit_matches_reference<double>());
  EXPECT_TRUE(apply_single_qubit_matches_reference<float>());
}

/// Per-index reference for a dense block over ordered targets: gather the
/// block of every control-satisfied base, row-dot from zero in column
/// order, scatter.
template <typename R>
void reference_block(std::vector<std::complex<R>>& amp,
                     const std::vector<std::complex<R>>& u,
                     const std::vector<std::size_t>& targets,
                     std::uint64_t cmask, std::size_t n) {
  const std::size_t m = targets.size();
  const std::uint64_t block = std::uint64_t{1} << m;
  std::uint64_t tmask = 0;
  std::vector<std::uint64_t> offset(block, 0);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t bit = qubit_mask(targets[m - 1 - j], n);
    tmask |= bit;
    for (std::uint64_t l = 0; l < block; ++l)
      if ((l >> j) & 1) offset[l] |= bit;
  }
  std::vector<std::complex<R>> in(block);
  for (std::uint64_t i = 0; i < amp.size(); ++i) {
    if ((i & tmask) != 0 || (i & cmask) != cmask) continue;
    for (std::uint64_t l = 0; l < block; ++l) in[l] = amp[i | offset[l]];
    for (std::uint64_t r = 0; r < block; ++r) {
      std::complex<R> acc{};
      for (std::uint64_t col = 0; col < block; ++col)
        acc += u[r * block + col] * in[col];
      amp[i | offset[r]] = acc;
    }
  }
}

/// A controlled 3-qubit dense unitary with its control on bit 0 (and once
/// more with a second control on the top wire), through apply_unitary's
/// block kernel at the active level.
template <typename R>
::testing::AssertionResult controlled_block_matches_reference() {
  Rng rng(7);
  ComplexMatrix matrix(8, 8);
  std::vector<std::complex<R>> u(64);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t col = 0; col < 8; ++col) {
      const double re = rng.uniform(-1.0, 1.0);
      matrix(r, col) = Amplitude(re, rng.uniform(-1.0, 1.0));
      u[r * 8 + col] = narrow<R>(matrix(r, col));
    }
  }
  for (std::size_t n = 4; n <= 12; ++n) {
    const std::size_t bit0 = n - 1;
    const std::vector<std::vector<std::size_t>> target_sets = {
        {0, 1, 2}, {n - 2, 0, n / 2}, {1, n - 3, n - 2}};
    for (const std::vector<std::size_t>& targets : target_sets) {
      for (const std::vector<std::size_t>& controls :
           std::vector<std::vector<std::size_t>>{{bit0}, {bit0, 0}}) {
        std::uint64_t wires = 0;
        for (std::size_t w : targets) wires |= std::uint64_t{1} << w;
        for (std::size_t w : controls) wires |= std::uint64_t{1} << w;
        const bool distinct = static_cast<std::size_t>(__builtin_popcountll(
                                  wires)) == targets.size() + controls.size();
        if (!distinct) continue;
        std::uint64_t cmask = 0;
        for (std::size_t c : controls) cmask |= qubit_mask(c, n);
        const std::vector<std::complex<R>> input =
            random_vector<R>(std::uint64_t{1} << n, rng);
        std::vector<std::complex<R>> expected = input;
        reference_block(expected, u, targets, cmask, n);
        BasicStatevector<R> psi(n);
        psi.set_amplitudes(input);
        psi.apply_unitary(matrix, targets, controls);
        if (!same_bytes(psi.amplitudes(), expected))
          return ::testing::AssertionFailure()
                 << "block kernel differs from the reference: n=" << n
                 << " targets=" << targets[0] << "," << targets[1] << ","
                 << targets[2] << " controls=" << controls.size();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(GateKernels, ControlledBlockOnBitZeroEqualsThePerIndexReference) {
  EXPECT_TRUE(controlled_block_matches_reference<double>());
  EXPECT_TRUE(controlled_block_matches_reference<float>());
}

}  // namespace
}  // namespace qtda
