// Tests for quantum/trotter.hpp: synthesized circuits vs matrix exponentials.
#include "quantum/trotter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit_plans.hpp"
#include "common/random.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/matrix_ops.hpp"
#include "quantum/executor.hpp"
#include "quantum/gates.hpp"
#include "quantum/statevector.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

using testing::unfused_plan;

/// Max |difference| between circuit action and a dense unitary, probed on
/// every basis state of an n-qubit register.
double circuit_vs_unitary(const Circuit& circuit, const ComplexMatrix& u) {
  const std::size_t n = circuit.num_qubits();
  const std::uint64_t dim = 1ULL << n;
  double worst = 0.0;
  for (std::uint64_t col = 0; col < dim; ++col) {
    Statevector s(n);
    s.set_basis_state(col);
    s.apply_plan(unfused_plan(circuit));
    for (std::uint64_t row = 0; row < dim; ++row)
      worst = std::max(worst, std::abs(s.amplitude(row) - u(row, col)));
  }
  return worst;
}

TEST(PauliExponential, SingleZTermIsExact) {
  // e^{iθZ} needs no Trotterization.
  const double theta = 0.42;
  Circuit c(1);
  append_pauli_exponential(c, PauliString("Z"), theta);
  const auto u = unitary_exp(RealMatrix{{1.0, 0.0}, {0.0, -1.0}}, theta);
  EXPECT_LT(circuit_vs_unitary(c, u), 1e-12);
}

TEST(PauliExponential, SingleXTermIsExact) {
  const double theta = -0.7;
  Circuit c(1);
  append_pauli_exponential(c, PauliString("X"), theta);
  const auto u = unitary_exp(RealMatrix{{0.0, 1.0}, {1.0, 0.0}}, theta);
  EXPECT_LT(circuit_vs_unitary(c, u), 1e-12);
}

TEST(PauliExponential, SingleYTermIsExact) {
  const double theta = 1.3;
  Circuit c(1);
  append_pauli_exponential(c, PauliString("Y"), theta);
  // e^{iθY} = cosθ·I + i·sinθ·Y (real matrix).
  ComplexMatrix u(2, 2);
  u(0, 0) = std::cos(theta);
  u(1, 1) = std::cos(theta);
  u(0, 1) = std::sin(theta);
  u(1, 0) = -std::sin(theta);
  EXPECT_LT(circuit_vs_unitary(c, u), 1e-12);
}

TEST(PauliExponential, TwoQubitZZIsExact) {
  const double theta = 0.9;
  Circuit c(2);
  append_pauli_exponential(c, PauliString("ZZ"), theta);
  RealMatrix zz(4, 4);
  zz(0, 0) = 1.0;
  zz(1, 1) = -1.0;
  zz(2, 2) = -1.0;
  zz(3, 3) = 1.0;
  EXPECT_LT(circuit_vs_unitary(c, unitary_exp(zz, theta)), 1e-12);
}

TEST(PauliExponential, MixedLettersXYZIsExact) {
  const double theta = 0.31;
  Circuit c(3);
  const PauliString p("XYZ");
  append_pauli_exponential(c, p, theta);
  // Dense reference via the Pauli matrix (Hermitian, P² = I):
  // e^{iθP} = cosθ·I + i·sinθ·P.
  const auto pm = p.matrix();
  ComplexMatrix u = ComplexMatrix::identity(8);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      u(i, j) = std::cos(theta) * (i == j ? 1.0 : 0.0) +
                std::complex<double>(0.0, std::sin(theta)) * pm(i, j);
  EXPECT_LT(circuit_vs_unitary(c, u), 1e-12);
}

TEST(PauliExponential, IdentityStringIsGlobalPhase) {
  Circuit c(2);
  append_pauli_exponential(c, PauliString("II"), 0.8);
  EXPECT_EQ(c.gate_count(), 0u);
  EXPECT_DOUBLE_EQ(c.global_phase(), 0.8);
  const auto s = run_circuit(c);
  EXPECT_NEAR(std::arg(s.amplitude(0)), 0.8, 1e-12);
}

TEST(PauliExponential, ZeroAngleIsNoop) {
  Circuit c(2);
  append_pauli_exponential(c, PauliString("XZ"), 0.0);
  EXPECT_EQ(c.gate_count(), 0u);
}

TEST(PauliExponential, OffsetShiftsWires) {
  // Exponential of Z on string qubit 0 with offset 1 acts on wire 1.
  Circuit c(2);
  append_pauli_exponential(c, PauliString("Z"), 0.5, /*offset=*/1);
  ASSERT_EQ(c.gate_count(), 1u);
  EXPECT_EQ(c.gates()[0].targets[0], 1u);
}

TEST(TrotterCircuit, CommutingTermsAreExactInOneStep) {
  // Z⊗I and I⊗Z commute: first-order Trotter is exact.
  PauliSum h({{0.7, PauliString("ZI")}, {-0.3, PauliString("IZ")}});
  const Circuit c = trotter_circuit(h, 1.0, {1, 1}, 2);
  const auto dense = h.matrix();
  RealMatrix real_h(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) real_h(i, j) = dense(i, j).real();
  EXPECT_LT(circuit_vs_unitary(c, unitary_exp(real_h, 1.0)), 1e-12);
}

class TrotterConvergence : public ::testing::TestWithParam<int> {};

TEST_P(TrotterConvergence, ErrorShrinksWithSteps) {
  // Non-commuting X + Z: error must decrease as steps grow, faster for
  // order 2.
  const int order = GetParam();
  PauliSum h({{0.6, PauliString("X")}, {0.8, PauliString("Z")}});
  RealMatrix real_h{{0.8, 0.6}, {0.6, -0.8}};
  const auto exact = unitary_exp(real_h, 1.0);
  double previous = 1e9;
  for (std::size_t steps : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const Circuit c = trotter_circuit(h, 1.0, {steps, order}, 1);
    const double err = circuit_vs_unitary(c, exact);
    EXPECT_LT(err, previous * 1.01);
    previous = err;
  }
  EXPECT_LT(previous, order == 2 ? 1e-4 : 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Orders, TrotterConvergence, ::testing::Values(1, 2));

TEST(TrotterCircuit, SecondOrderBeatsFirstOrder) {
  PauliSum h({{0.5, PauliString("XX")},
              {0.5, PauliString("ZI")},
              {0.25, PauliString("IY")}});
  // IY makes H complex, so compare first vs second order against a
  // high-step second-order reference instead of a real-matrix exponential.
  const Circuit reference = trotter_circuit(h, 1.0, {256, 2}, 2);
  Statevector ref_state(2);
  ref_state.apply_single_qubit(gates::H(), 0);
  ref_state.apply_plan(unfused_plan(reference));

  const auto error_of = [&](const TrotterOptions& options) {
    const Circuit c = trotter_circuit(h, 1.0, options, 2);
    Statevector s(2);
    s.apply_single_qubit(gates::H(), 0);
    s.apply_plan(unfused_plan(c));
    double diff = 0.0;
    for (std::uint64_t i = 0; i < 4; ++i)
      diff = std::max(diff,
                      std::abs(s.amplitude(i) - ref_state.amplitude(i)));
    return diff;
  };
  EXPECT_LT(error_of({4, 2}), error_of({4, 1}));
}

TEST(TrotterCircuit, GateCountScalesLinearlyInSteps) {
  PauliSum h({{1.0, PauliString("XX")}, {1.0, PauliString("ZZ")}});
  const auto c1 = trotter_circuit(h, 1.0, {1, 1}, 2);
  const auto c4 = trotter_circuit(h, 1.0, {4, 1}, 2);
  EXPECT_EQ(c4.gate_count(), 4 * c1.gate_count());
}

TEST(TrotterCircuit, ControlledFragmentOnlyFiresWithControl) {
  // Control wire 0, system wire 1: with control |0⟩ nothing happens.
  PauliSum h({{0.9, PauliString("X")}});
  const Circuit fragment = trotter_circuit(h, 1.0, {1, 1}, 2, /*offset=*/1);
  const Circuit controlled = fragment.controlled_on(0);
  const auto idle = run_circuit(controlled);
  EXPECT_NEAR(idle.probability(0), 1.0, 1e-12);

  Circuit with_control(2);
  with_control.x(0);
  with_control.append_circuit(controlled);
  const auto fired = run_circuit(with_control);
  // e^{i·0.9·X}|0⟩ has |⟨1|ψ⟩|² = sin²(0.9) on wire 1.
  EXPECT_NEAR(fired.probability(0b11), std::sin(0.9) * std::sin(0.9), 1e-10);
}

}  // namespace
}  // namespace qtda
