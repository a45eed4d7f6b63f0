// Tests for quantum/statevector.hpp: kernels against dense linear algebra.
#include "quantum/statevector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/matrix_ops.hpp"
#include "quantum/gates.hpp"

namespace qtda {
namespace {

ComplexMatrix random_unitary2(Rng& rng) {
  // Haar-ish 2×2 unitary from random rotations (enough for kernel tests).
  return matmul(gates::RZ(rng.uniform(0.0, 6.28)),
                matmul(gates::RY(rng.uniform(0.0, 3.14)),
                       gates::RZ(rng.uniform(0.0, 6.28))));
}

/// Dense reference: expands a single-qubit gate to the full register with
/// MSB-first ordering.
ComplexMatrix expand_single(const ComplexMatrix& u, std::size_t target,
                            std::size_t n) {
  ComplexMatrix full = ComplexMatrix::identity(1);
  for (std::size_t q = 0; q < n; ++q)
    full = kronecker(full, q == target ? u : ComplexMatrix::identity(2));
  return full;
}

TEST(Statevector, InitialStateIsZeroKet) {
  Statevector s(3);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_NEAR(std::abs(s.amplitude(0) - Amplitude{1.0, 0.0}), 0.0, 1e-15);
  EXPECT_NEAR(s.norm_squared(), 1.0, 1e-15);
}

TEST(Statevector, SetBasisState) {
  Statevector s(2);
  s.set_basis_state(2);
  EXPECT_DOUBLE_EQ(s.probability(2), 1.0);
  EXPECT_DOUBLE_EQ(s.probability(0), 0.0);
  EXPECT_THROW(s.set_basis_state(4), Error);
}

TEST(Statevector, HadamardOnQubit0SplitsMsb) {
  // Qubit 0 is the MSB: H(0) on |00⟩ gives (|00⟩ + |10⟩)/√2.
  Statevector s(2);
  s.apply_single_qubit(gates::H(), 0);
  EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(s.probability(2), 0.5, 1e-12);
  EXPECT_NEAR(s.probability(1), 0.0, 1e-12);
}

TEST(Statevector, HadamardOnQubit1SplitsLsb) {
  Statevector s(2);
  s.apply_single_qubit(gates::H(), 1);
  EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(s.probability(1), 0.5, 1e-12);
}

TEST(Statevector, XFlipsCorrectBit) {
  Statevector s(3);
  s.apply_single_qubit(gates::X(), 2);  // LSB
  EXPECT_DOUBLE_EQ(s.probability(1), 1.0);
  s.apply_single_qubit(gates::X(), 0);  // MSB
  EXPECT_DOUBLE_EQ(s.probability(0b101), 1.0);
}

TEST(Statevector, ControlledGateOnlyFiresWhenControlSet) {
  Statevector s(2);
  // CNOT(0→1) on |00⟩ does nothing.
  s.apply_single_qubit(gates::X(), 1, {0});
  EXPECT_DOUBLE_EQ(s.probability(0), 1.0);
  // Set control, then CNOT flips target.
  s.apply_single_qubit(gates::X(), 0);
  s.apply_single_qubit(gates::X(), 1, {0});
  EXPECT_DOUBLE_EQ(s.probability(3), 1.0);
}

TEST(Statevector, BellStateFromHAndCnot) {
  Statevector s(2);
  s.apply_single_qubit(gates::H(), 0);
  s.apply_single_qubit(gates::X(), 1, {0});
  EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(s.probability(3), 0.5, 1e-12);
  EXPECT_NEAR(s.probability(1), 0.0, 1e-12);
  EXPECT_NEAR(s.probability(2), 0.0, 1e-12);
}

class SingleQubitKernel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SingleQubitKernel, MatchesDenseReference) {
  const std::size_t n = 4;
  const std::size_t target = GetParam();
  Rng rng(100 + target);
  const auto u = random_unitary2(rng);

  // Random initial state.
  std::vector<Amplitude> amps(1 << n);
  for (auto& a : amps) a = {rng.normal(), rng.normal()};
  Statevector s(n);
  s.set_amplitudes(amps);
  s.normalize();
  const auto reference_in = s.amplitudes();

  s.apply_single_qubit(u, target);

  const auto full = expand_single(u, target, n);
  const auto expected = matvec(full, reference_in);
  for (std::size_t i = 0; i < amps.size(); ++i)
    EXPECT_NEAR(std::abs(s.amplitudes()[i] - expected[i]), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Targets, SingleQubitKernel,
                         ::testing::Values(0, 1, 2, 3));

TEST(Statevector, DenseUnitaryMatchesKroneckerReference) {
  // Two-qubit unitary on targets {1, 2} of a 3-qubit register.
  Rng rng(7);
  const auto u2 = kronecker(random_unitary2(rng), random_unitary2(rng));
  std::vector<Amplitude> amps(8);
  for (auto& a : amps) a = {rng.normal(), rng.normal()};
  Statevector s(3);
  s.set_amplitudes(amps);
  s.normalize();
  const auto input = s.amplitudes();

  s.apply_unitary(u2, {1, 2});

  // Reference: I ⊗ u2 (qubit 0 untouched, MSB-first).
  const auto full = kronecker(ComplexMatrix::identity(2), u2);
  const auto expected = matvec(full, input);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(std::abs(s.amplitudes()[i] - expected[i]), 0.0, 1e-12);
}

TEST(Statevector, DenseUnitaryTargetOrderIsMsbFirst) {
  // A CNOT-like matrix applied to targets {0, 1} vs {1, 0} must differ:
  // the first listed target is the most significant local bit.
  ComplexMatrix cnot(4, 4);
  cnot(0, 0) = 1.0;
  cnot(1, 1) = 1.0;
  cnot(2, 3) = 1.0;
  cnot(3, 2) = 1.0;
  Statevector a(2);
  a.set_basis_state(0b10);  // qubit0 = 1
  a.apply_unitary(cnot, {0, 1});
  EXPECT_DOUBLE_EQ(a.probability(0b11), 1.0);  // control=qubit0 fires

  Statevector b(2);
  b.set_basis_state(0b10);
  b.apply_unitary(cnot, {1, 0});  // control is now qubit1 (=0)
  EXPECT_DOUBLE_EQ(b.probability(0b10), 1.0);
}

TEST(Statevector, ControlledDenseUnitary) {
  Rng rng(9);
  const auto u = random_unitary2(rng);
  Statevector s(3);
  s.set_basis_state(0b001);  // control qubit 2 set
  s.apply_unitary(u, {1}, {2});
  // Target qubit 1 now in superposition determined by u column 0.
  EXPECT_NEAR(s.probability(0b001), std::norm(u(0, 0)), 1e-12);
  EXPECT_NEAR(s.probability(0b011), std::norm(u(1, 0)), 1e-12);
}

TEST(Statevector, GlobalPhasePreservesProbabilities) {
  Statevector s(2);
  s.apply_single_qubit(gates::H(), 0);
  const auto before = s.probabilities();
  s.apply_global_phase(1.234);
  const auto after = s.probabilities();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(before[i], after[i], 1e-14);
  EXPECT_NEAR(std::arg(s.amplitude(0)), 1.234, 1e-12);
}

TEST(Statevector, MarginalProbabilities) {
  Statevector s(3);
  s.apply_single_qubit(gates::H(), 0);
  s.apply_single_qubit(gates::X(), 2);
  // Marginal over qubit 2 alone: always 1.
  const auto m2 = s.marginal_probabilities({2});
  EXPECT_NEAR(m2[1], 1.0, 1e-12);
  // Marginal over qubit 0: uniform.
  const auto m0 = s.marginal_probabilities({0});
  EXPECT_NEAR(m0[0], 0.5, 1e-12);
  EXPECT_NEAR(m0[1], 0.5, 1e-12);
  // Joint over {0, 2} (qubit 0 is the MSB of the outcome).
  const auto m02 = s.marginal_probabilities({0, 2});
  EXPECT_NEAR(m02[0b01], 0.5, 1e-12);
  EXPECT_NEAR(m02[0b11], 0.5, 1e-12);
}

TEST(Statevector, MarginalValidatesAllQubitsBeforeBuildingMasks) {
  // An out-of-range wire anywhere in the list must throw before any mask
  // shift is computed (the shift itself would be UB).
  Statevector s(3);
  EXPECT_THROW(s.marginal_probabilities({0, 99}), Error);
  EXPECT_THROW(s.marginal_probabilities({99, 0}), Error);
}

TEST(Statevector, SampleCountsConcentrateOnSupport) {
  Statevector s(2);
  s.apply_single_qubit(gates::H(), 0);
  Rng rng(11);
  const auto counts = s.sample_counts({0, 1}, 10000, rng);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[0] + counts[2], 10000u);
  EXPECT_NEAR(static_cast<double>(counts[0]), 5000.0, 300.0);
}

TEST(Statevector, NormalizeAndInnerProduct) {
  Statevector a(1), b(1);
  a.set_amplitudes({{3.0, 0.0}, {4.0, 0.0}});
  a.normalize();
  EXPECT_NEAR(a.norm_squared(), 1.0, 1e-14);
  b.set_basis_state(0);
  EXPECT_NEAR(std::abs(a.inner_product(b)) , 0.6, 1e-12);
}

TEST(Statevector, LargeRegisterParallelPathConsistent) {
  // A 2^16-amplitude register against small-state logic (serial kernels;
  // the pool's reductions start at kStatevectorParallelThreshold).
  const std::size_t n = 16;
  Statevector s(n);
  for (std::size_t q = 0; q < n; ++q) s.apply_single_qubit(gates::H(), q);
  EXPECT_NEAR(s.norm_squared(), 1.0, 1e-10);
  const double expected = 1.0 / static_cast<double>(s.dimension());
  EXPECT_NEAR(s.probability(0), expected, 1e-12);
  EXPECT_NEAR(s.probability(s.dimension() - 1), expected, 1e-12);
}

TEST(MultinomialSample, TotalsAndDeterminism) {
  Rng a(13), b(13);
  const std::vector<double> dist{0.1, 0.2, 0.3, 0.4};
  const auto c1 = multinomial_sample(dist, 1000, a);
  const auto c2 = multinomial_sample(dist, 1000, b);
  EXPECT_EQ(c1, c2);
  std::uint64_t total = 0;
  for (auto c : c1) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(MultinomialSample, RejectsInvalidDistributions) {
  Rng rng(1);
  EXPECT_THROW(multinomial_sample({}, 10, rng), Error);
  EXPECT_THROW(multinomial_sample({0.0, 0.0}, 10, rng), Error);
  EXPECT_THROW(multinomial_sample({-0.5, 1.5}, 10, rng), Error);
}

}  // namespace
}  // namespace qtda
