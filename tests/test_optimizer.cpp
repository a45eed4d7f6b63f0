// Tests for the fused compiler's circuit rewrites: exact inverse pairs
// cancel (cascading, never across a gate on a shared wire, never between
// gates on different controls) and adjacent same-wire rotations merge into
// one op.  Every compiled plan is checked against the gate-by-gate plan.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit_plans.hpp"
#include "common/random.hpp"
#include "quantum/compiler.hpp"
#include "quantum/executor.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

using testing::unfused_plan;

/// Compiles \p circuit with fusion on and checks that the plan keeps the
/// circuit's global phase and every column of its unitary to 1e-12.
ExecutionPlan compile_checked(const Circuit& circuit) {
  const ExecutionPlan fused = compile_circuit(circuit, CompilerOptions{});
  EXPECT_EQ(fused.global_phase(), circuit.global_phase());
  const ExecutionPlan reference = unfused_plan(circuit);
  const std::size_t n = circuit.num_qubits();
  for (std::uint64_t basis = 0; basis < (std::uint64_t{1} << n); ++basis) {
    Statevector expected(n);
    expected.set_basis_state(basis);
    expected.apply_plan(reference);
    Statevector actual(n);
    actual.set_basis_state(basis);
    actual.apply_plan(fused);
    for (std::uint64_t i = 0; i < expected.dimension(); ++i)
      EXPECT_NEAR(std::abs(expected.amplitude(i) - actual.amplitude(i)), 0.0,
                  1e-12)
          << "column " << basis << " row " << i;
  }
  return fused;
}

TEST(Optimizer, CancelsAdjacentHadamards) {
  Circuit c(1);
  c.h(0);
  c.h(0);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_TRUE(plan.ops().empty());
  EXPECT_EQ(plan.stats().cancelled_pairs, 1u);
}

TEST(Optimizer, CancelsAdjacentCnots) {
  Circuit c(2);
  c.cnot(0, 1);
  c.cnot(0, 1);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_TRUE(plan.ops().empty());
  EXPECT_EQ(plan.stats().cancelled_pairs, 1u);
}

TEST(Optimizer, DoesNotCancelAcrossInterveningGate) {
  Circuit c(2);
  c.h(0);
  c.cnot(0, 1);  // touches qubit 0 between the Hadamards
  c.h(0);
  EXPECT_EQ(compile_checked(c).stats().cancelled_pairs, 0u);
}

TEST(Optimizer, CancelsThroughIndependentWires) {
  // A gate on another qubit does not block cancellation.
  Circuit c(2);
  c.h(0);
  c.x(1);
  c.h(0);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_EQ(plan.stats().cancelled_pairs, 1u);
  EXPECT_EQ(plan.ops().size(), 1u);  // the X
}

TEST(Optimizer, MergesRotations) {
  // Rotations are no inverse pair: fusion merges adjacent ones on a wire
  // into one op, opposite angles included.
  Circuit c(1);
  c.rz(0, 0.3);
  c.rz(0, 0.5);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_EQ(plan.ops().size(), 1u);
  EXPECT_EQ(plan.stats().cancelled_pairs, 0u);
  Circuit merged(1);
  merged.rz(0, 0.8);
  Statevector expected(1);
  expected.set_basis_state(1);
  expected.apply_plan(unfused_plan(merged));
  Statevector actual(1);
  actual.set_basis_state(1);
  actual.apply_plan(plan);
  for (std::uint64_t i = 0; i < 2; ++i)
    EXPECT_NEAR(std::abs(expected.amplitude(i) - actual.amplitude(i)), 0.0,
                1e-12);

  Circuit opposite(1);
  opposite.rx(0, 1.1);
  opposite.rx(0, -1.1);
  const ExecutionPlan identity = compile_checked(opposite);
  EXPECT_EQ(identity.ops().size(), 1u);
  EXPECT_EQ(identity.stats().cancelled_pairs, 0u);
}

TEST(Optimizer, SAndSdgCancel) {
  Circuit c(1);
  c.s(0);
  c.sdg(0);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_TRUE(plan.ops().empty());
  EXPECT_EQ(plan.stats().cancelled_pairs, 1u);
}

TEST(Optimizer, TAndTdgCancelInEitherOrder) {
  Circuit c(1);
  c.t(0);
  c.tdg(0);
  c.tdg(0);
  c.t(0);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_TRUE(plan.ops().empty());
  EXPECT_EQ(plan.stats().cancelled_pairs, 2u);
}

TEST(Optimizer, ControlledGatesNeedMatchingWires) {
  Circuit c(3);
  c.cnot(0, 1);
  c.cnot(2, 1);  // same target, different control: must not cancel
  EXPECT_EQ(compile_checked(c).stats().cancelled_pairs, 0u);
}

TEST(Optimizer, FixpointCascades) {
  // X H H X: the inner pair exposes the outer one, in the same pass.
  Circuit c(1);
  c.x(0);
  c.h(0);
  c.h(0);
  c.x(0);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_TRUE(plan.ops().empty());
  EXPECT_EQ(plan.stats().cancelled_pairs, 2u);
}

class OptimizerSemantics : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerSemantics, PreservesCircuitAction) {
  // Random circuits: the fused plan and the original produce identical
  // states.
  Rng rng(GetParam() * 31 + 7);
  const std::size_t n = 3;
  Circuit c(n);
  for (int i = 0; i < 60; ++i) {
    const std::size_t q = rng.uniform_index(n);
    switch (rng.uniform_index(7)) {
      case 0: c.h(q); break;
      case 1: c.x(q); break;
      case 2: c.s(q); break;
      case 3: c.sdg(q); break;
      case 4: c.rz(q, rng.uniform(-3.0, 3.0)); break;
      case 5: c.rx(q, rng.uniform(-3.0, 3.0)); break;
      default: {
        const std::size_t other = (q + 1 + rng.uniform_index(n - 1)) % n;
        c.cnot(q, other);
        break;
      }
    }
  }
  const ExecutionPlan plan = compile_circuit(c, CompilerOptions{});
  EXPECT_LE(plan.stats().gates_after, plan.stats().gates_before);
  const auto before = run_circuit(c);
  Statevector after(n);
  after.apply_plan(plan);
  for (std::uint64_t i = 0; i < before.dimension(); ++i) {
    EXPECT_NEAR(std::abs(before.amplitude(i) - after.amplitude(i)), 0.0,
                1e-10)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerSemantics,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Optimizer, PreservesGlobalPhase) {
  Circuit c(1);
  c.add_global_phase(0.5);
  c.h(0);
  c.h(0);
  const ExecutionPlan plan = compile_checked(c);
  EXPECT_TRUE(plan.ops().empty());
  EXPECT_DOUBLE_EQ(plan.global_phase(), 0.5);
}

}  // namespace
}  // namespace qtda
