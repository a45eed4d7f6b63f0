// Tests for quantum/backend.hpp and the matrix-free operator path:
// StatevectorBackend vs raw Statevector, apply_operator vs apply_unitary,
// and operator gates in the circuit IR.
#include "quantum/backend.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "circuit_plans.hpp"
#include "common/cancel.hpp"
#include "common/random.hpp"
#include "scoped_env.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/qasm.hpp"
#include "quantum/qft.hpp"

namespace qtda {
namespace {

using testing::noise_slot_plan;
using testing::unfused_plan;

/// Random real symmetric matrix → random unitary e^{iH} of dimension 2^m.
ComplexMatrix random_unitary(std::size_t m, Rng& rng) {
  const std::size_t dim = std::size_t{1} << m;
  RealMatrix h(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform() * 2.0 - 1.0;
  return unitary_exp(h);
}

Circuit small_circuit() {
  Circuit circuit(3);
  circuit.h(0);
  circuit.cnot(0, 1);
  circuit.ry(2, 0.7);
  append_qft(circuit, {0, 1, 2});
  return circuit;
}

double max_amp_diff(const Statevector& a, const Statevector& b) {
  double err = 0.0;
  for (std::uint64_t i = 0; i < a.dimension(); ++i)
    err = std::max(err, std::abs(a.amplitude(i) - b.amplitude(i)));
  return err;
}

TEST(SimulatorBackend, FactoryBuildsStatevector) {
  // This test pins the factory's *default* mapping, so neutralize (and
  // afterwards restore) a QTDA_SIMULATOR override that would force every
  // factory call onto another engine.
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  const auto backend = make_simulator(SimulatorKind::kStatevector, 3);
  EXPECT_EQ(backend->name(), "statevector");
  EXPECT_EQ(backend->num_qubits(), 3u);
  EXPECT_EQ(simulator_kind_name(SimulatorKind::kStatevector), "statevector");
}

TEST(SimulatorBackend, MatchesRawStatevectorOnCircuit) {
  const Circuit circuit = small_circuit();
  Statevector reference(3);
  reference.set_basis_state(5);
  for (const Gate& gate : circuit.gates()) reference.apply_gate(gate);

  StatevectorBackend backend(3);
  backend.prepare_basis_state(5);
  backend.apply_plan(unfused_plan(circuit));
  EXPECT_LT(max_amp_diff(backend.state(), reference), 1e-12);

  // Sampling flows through the same multinomial machinery.
  Rng rng_a(5), rng_b(5);
  const auto counts_a = backend.sample({0, 1}, 500, rng_a);
  const auto counts_b = reference.sample_counts({0, 1}, 500, rng_b);
  EXPECT_EQ(counts_a, counts_b);
  EXPECT_EQ(backend.marginal_probabilities({0, 1}),
            reference.marginal_probabilities({0, 1}));
}

TEST(SimulatorBackend, DepolarizingMatchesNoiseHelper) {
  Circuit circuit(2);
  circuit.h(0);
  StatevectorBackend backend(2);
  Statevector reference(2);
  Rng rng_a(9), rng_b(9);
  // Certain error after the gate: the walk draws what the helper draws.
  backend.apply_plan_with_noise(noise_slot_plan(circuit), NoiseModel{1.0, 1.0},
                                rng_a);
  reference.apply_gate(circuit.gates()[0]);
  maybe_apply_depolarizing(reference, 0, 1.0, rng_b);
  EXPECT_LT(max_amp_diff(backend.state(), reference), 1e-12);
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(SimulatorBackend, StatevectorPlanWalksStopAtAnExpiredDeadline) {
  // Every plan walk checkpoints between ops, so a served request past its
  // deadline stops before the next op instead of finishing the evolution.
  Circuit circuit(2);
  circuit.h(0);
  circuit.cnot(0, 1);
  StatevectorBackend backend(2);
  Rng rng(4);
  const cancel::ScopedDeadline expired(std::chrono::steady_clock::now() -
                                       std::chrono::milliseconds(1));
  EXPECT_THROW(backend.apply_plan(unfused_plan(circuit)), CancelledError);
  EXPECT_THROW(backend.apply_plan_with_noise(noise_slot_plan(circuit),
                                             NoiseModel{0.1, 0.1}, rng),
               CancelledError);
  EXPECT_EQ(backend.state().probability(0), 1.0);
}

class ApplyOperatorLayouts : public ::testing::TestWithParam<int> {};

TEST_P(ApplyOperatorLayouts, MatrixFreeEqualsDenseUnitary) {
  // Layouts: trailing contiguous targets (fast path), mid-register targets
  // (gather path), with and without a control.
  struct Case {
    std::vector<std::size_t> targets;
    std::vector<std::size_t> controls;
  };
  const Case cases[] = {
      {{3, 4}, {}},      // trailing, uncontrolled (contiguous memcpy path)
      {{3, 4}, {0}},     // trailing, controlled
      {{1, 2}, {}},      // middle of the register (strided gather)
      {{1, 3}, {0}},     // non-adjacent targets, controlled
      {{2, 1}, {4}},     // reversed target order
  };
  const Case& c = cases[GetParam()];

  Rng rng(100 + GetParam());
  const ComplexMatrix u = random_unitary(c.targets.size(), rng);

  // Random initial state on 5 qubits.
  std::vector<Amplitude> amps(32);
  for (auto& a : amps)
    a = {rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
  Statevector dense_state(5), op_state(5);
  dense_state.set_amplitudes(amps);
  dense_state.normalize();
  op_state.set_amplitudes(dense_state.amplitudes());

  dense_state.apply_unitary(u, c.targets, c.controls);
  const DenseOperator op(u);
  op_state.apply_operator(op, c.targets, c.controls);
  EXPECT_LT(max_amp_diff(op_state, dense_state), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Layouts, ApplyOperatorLayouts,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(OperatorGate, CircuitIrRoundTrip) {
  const auto op = std::make_shared<DenseOperator>(ComplexMatrix::identity(4));
  Circuit circuit(4);
  circuit.operator_gate(op, {2, 3}, {0});
  EXPECT_EQ(circuit.gate_count(), 1u);
  EXPECT_EQ(circuit.gates()[0].kind, GateKind::kOperator);
  EXPECT_EQ(gate_kind_name(GateKind::kOperator), "Op");
  EXPECT_GE(circuit.depth(), 1u);
  EXPECT_EQ(circuit.two_qubit_gate_count(), 1u);

  // controlled_on stacks another control on the operator gate.
  const Circuit controlled = circuit.controlled_on(1);
  EXPECT_EQ(controlled.gates()[0].controls.size(), 2u);

  // Identity operator leaves any state unchanged.
  Statevector state(4);
  state.set_basis_state(9);
  state.apply_plan(unfused_plan(controlled));
  EXPECT_NEAR(std::abs(state.amplitude(9)), 1.0, 1e-12);
}

TEST(OperatorGate, ValidationAndUnsupportedConsumers) {
  const auto op = std::make_shared<DenseOperator>(ComplexMatrix::identity(4));
  Circuit circuit(3);
  // Dimension mismatch: 2-dim op on a 2-qubit target list.
  EXPECT_THROW(circuit.operator_gate(
                   std::make_shared<DenseOperator>(ComplexMatrix::identity(2)),
                   {0, 1}),
               Error);
  // Missing operator.
  Gate bad;
  bad.kind = GateKind::kOperator;
  bad.targets = {0, 1};
  EXPECT_THROW(circuit.append(bad), Error);

  circuit.operator_gate(op, {1, 2});
  EXPECT_THROW(circuit.gates()[0].single_qubit_matrix(), Error);
  EXPECT_THROW(to_qasm(circuit), Error);
  // Operator gates are no longer statevector-only: the density-matrix
  // engine applies them matrix-free on both registers (identity op ⇒ ρ
  // unchanged).
  DensityMatrix rho(3);
  EXPECT_NO_THROW(rho.apply_plan(unfused_plan(circuit)));
  EXPECT_NEAR(std::abs(rho.element(0, 0) - Amplitude{1.0, 0.0}), 0.0, 1e-12);
}

TEST(SimulatorBackend, DensityMatrixWidthGuardFailsFast) {
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  // Direct selection beyond the 4^n cap: rejected in the factory with the
  // cap named, before any storage is touched.
  try {
    make_simulator(SimulatorKind::kDensityMatrix, 14);
    FAIL() << "expected the width guard to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("density-matrix"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("13"), std::string::npos);
  }
  // Within the cap the factory builds the engine (small width: a 13-qubit
  // ρ would allocate 4^13 amplitudes ≈ 1 GB just to check a name).
  EXPECT_EQ(make_simulator(SimulatorKind::kDensityMatrix, 4)->name(),
            "density-matrix");
}

TEST(SimulatorBackend, EnvForcedDensityMatrixNamesTheVariable) {
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  setenv("QTDA_SIMULATOR", "density-matrix", 1);
  try {
    make_simulator(SimulatorKind::kStatevector, 14);
    FAIL() << "expected the width guard to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QTDA_SIMULATOR"), std::string::npos)
        << e.what();
  }
  // A width inside the cap is forced onto the density engine as requested.
  EXPECT_EQ(make_simulator(SimulatorKind::kStatevector, 3)->name(),
            "density-matrix");
}

TEST(SimulatorBackend, MalformedEnvOverridesNameTheVariable) {
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  setenv("QTDA_SIMULATOR", "no-such-engine", 1);
  try {
    make_simulator(SimulatorKind::kStatevector, 3);
    FAIL() << "expected the simulator parse to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QTDA_SIMULATOR"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("statevector"), std::string::npos);
  }
}

TEST(SimulatorBackend, UnknownNameListsTheValidOnes) {
  try {
    simulator_kind_from_name("qpu");
    FAIL() << "expected an Error for an unknown simulator name";
  } catch (const Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("statevector"), std::string::npos) << message;
    EXPECT_NE(message.find("density-matrix"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace qtda
