/// \file test_compiler.cpp
/// \brief Circuit compiler tests: inverse-pair cancellation and fusion
/// equivalence across every simulator backend, the QTDA_FUSE=0
/// bit-identity guarantee against the engine's gate primitives, noise-slot
/// preservation (error placement and RNG draw order of a gate-by-gate
/// walk), compiler statistics, and the environment override.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "circuit_plans.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"
#include "scoped_env.hpp"
#include "simulator_kind_names.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace {

using namespace qtda;
using qtda::testing::noise_slot_plan;
using qtda::testing::unfused_plan;
using qtda::testing::walk_gates_with_noise;

/// A random 2^m×2^m unitary: e^{iH} of a random symmetric H.
ComplexMatrix random_unitary(std::size_t m, Rng& rng) {
  const std::size_t dim = std::size_t{1} << m;
  RealMatrix h(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform(-1.0, 1.0);
  return HamiltonianExponential(h).unitary();
}

/// A random circuit mixing every IR gate kind: named single-qubit gates and
/// rotations, controlled gates, swaps, dense two-qubit unitaries,
/// matrix-free operator gates over non-trailing targets, and back-to-back
/// inverse pairs (which fused compilation cancels; \p num_gates counts a
/// pair once).
Circuit random_circuit(std::size_t num_qubits, std::size_t num_gates,
                       Rng& rng) {
  Circuit circuit(num_qubits);
  for (std::size_t g = 0; g < num_gates; ++g) {
    const std::size_t q = rng.uniform_index(num_qubits);
    std::size_t p = rng.uniform_index(num_qubits);
    while (p == q) p = rng.uniform_index(num_qubits);
    switch (rng.uniform_index(11)) {
      case 0: circuit.h(q); break;
      case 1: circuit.x(q); break;
      case 2: circuit.t(q); break;
      case 3: circuit.rz(q, rng.uniform(-2.0, 2.0)); break;
      case 4: circuit.ry(q, rng.uniform(-2.0, 2.0)); break;
      case 5: circuit.cnot(p, q); break;
      case 6: circuit.controlled_phase(p, q, rng.uniform(-2.0, 2.0)); break;
      case 7: circuit.swap(p, q); break;
      case 8: {
        circuit.unitary(random_unitary(2, rng),
                        {std::min(p, q), std::max(p, q)});
        break;
      }
      case 9: {
        switch (rng.uniform_index(4)) {
          case 0: circuit.h(q); circuit.h(q); break;
          case 1: circuit.s(q); circuit.sdg(q); break;
          case 2: circuit.tdg(q); circuit.t(q); break;
          default: circuit.cnot(p, q); circuit.cnot(p, q); break;
        }
        break;
      }
      default: {
        const auto op = std::make_shared<DenseOperator>(random_unitary(2, rng));
        circuit.operator_gate(op, {std::min(p, q), std::max(p, q)});
        break;
      }
    }
  }
  circuit.add_global_phase(0.3);
  return circuit;
}

std::vector<Amplitude> backend_amplitudes(const SimulatorBackend& backend) {
  return dynamic_cast<const StatevectorBackend&>(backend).state().amplitudes();
}

/// Direct backend construction (not make_simulator): these tests pin the
/// per-engine behavior, so a QTDA_SIMULATOR override must not redirect them.
std::unique_ptr<SimulatorBackend> build_backend(SimulatorKind kind,
                                                std::size_t num_qubits) {
  switch (kind) {
    case SimulatorKind::kStatevector:
      return std::make_unique<StatevectorBackend>(num_qubits);
    case SimulatorKind::kDensityMatrix:
      return std::make_unique<DensityMatrixBackend>(num_qubits);
  }
  return nullptr;
}

class FusionEquivalence : public ::testing::TestWithParam<SimulatorKind> {};

TEST_P(FusionEquivalence, RandomCircuitsAgreeTo1e12) {
  const SimulatorKind kind = GetParam();
  constexpr std::size_t kQubits = 5;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Circuit circuit = random_circuit(kQubits, 24, rng);

    const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
    EXPECT_GT(plan.stats().cancelled_pairs, 0u) << "seed " << seed;

    const auto reference = build_backend(kind, kQubits);
    reference->prepare_basis_state(1);
    reference->apply_plan(unfused_plan(circuit));
    const auto compiled = build_backend(kind, kQubits);
    compiled->prepare_basis_state(1);
    compiled->apply_plan(plan);

    if (kind == SimulatorKind::kDensityMatrix) {
      // Amplitudes are not addressable through ρ; compare the full joint
      // distribution plus purity instead.
      std::vector<std::size_t> all(kQubits);
      for (std::size_t q = 0; q < kQubits; ++q) all[q] = q;
      const auto pr = reference->marginal_probabilities(all);
      const auto pc = compiled->marginal_probabilities(all);
      for (std::size_t i = 0; i < pr.size(); ++i)
        EXPECT_NEAR(pr[i], pc[i], 1e-12) << "seed " << seed << " outcome " << i;
      const auto* dr = dynamic_cast<const DensityMatrixBackend*>(&*reference);
      const auto* dc = dynamic_cast<const DensityMatrixBackend*>(&*compiled);
      EXPECT_NEAR(dr->state().purity(), dc->state().purity(), 1e-12);
    } else {
      const auto ar = backend_amplitudes(*reference);
      const auto ac = backend_amplitudes(*compiled);
      for (std::size_t i = 0; i < ar.size(); ++i)
        EXPECT_NEAR(std::abs(ar[i] - ac[i]), 0.0, 1e-12)
            << "seed " << seed << " amplitude " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FusionEquivalence,
                         ::testing::Values(SimulatorKind::kStatevector,
                                           SimulatorKind::kDensityMatrix),
                         qtda::testing::simulator_kind_test_name);

TEST(FusionEquivalence, UnfusedPlanIsBitIdentical) {
  // The QTDA_FUSE=0 guarantee: an unfused plan does the arithmetic of the
  // engine's gate primitives, byte for byte, global phase included.
  constexpr std::size_t kQubits = 5;
  Rng rng(77);
  const Circuit circuit = random_circuit(kQubits, 30, rng);
  const ExecutionPlan plan = unfused_plan(circuit);
  EXPECT_EQ(plan.ops().size(), circuit.gate_count());
  EXPECT_EQ(plan.stats().cancelled_pairs, 0u);

  Statevector reference(kQubits);
  reference.set_basis_state(3);
  for (const Gate& gate : circuit.gates()) reference.apply_gate(gate);
  reference.apply_global_phase(circuit.global_phase());
  Statevector compiled(kQubits);
  compiled.set_basis_state(3);
  compiled.apply_plan(plan);

  for (std::uint64_t i = 0; i < reference.dimension(); ++i) {
    EXPECT_EQ(reference.amplitude(i).real(), compiled.amplitude(i).real())
        << "amplitude " << i;
    EXPECT_EQ(reference.amplitude(i).imag(), compiled.amplitude(i).imag())
        << "amplitude " << i;
  }
}

TEST(Compiler, NoisePlanKeepsErrorPlacementAndRngOrder) {
  // The draw-sequence guarantee: a plan compiled for noisy execution walks
  // gate by gate, so the stochastic error positions and every RNG draw of
  // run_noisy_trajectory match a walk over the raw gates *bit for bit* —
  // even though the caller asked for fusion.
  Rng circuit_rng(11);
  const Circuit circuit = random_circuit(5, 30, circuit_rng);
  const NoiseModel noise{0.05, 0.1};

  CompilerOptions options;  // fusion on...
  options.preserve_noise_slots = true;  // ...but noise slots pin the walk
  const ExecutionPlan plan = compile_circuit(circuit, options);
  EXPECT_TRUE(plan.preserves_noise_slots());
  EXPECT_EQ(plan.ops().size(), circuit.gate_count());
  EXPECT_EQ(plan.stats().cancelled_pairs, 0u);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng raw_rng(seed);
    Rng plan_rng(seed);
    Statevector raw(circuit.num_qubits());
    walk_gates_with_noise(circuit, noise, raw, [&](std::size_t q, double p) {
      maybe_apply_depolarizing(raw, q, p, raw_rng);
    });
    raw.apply_global_phase(circuit.global_phase());
    const Statevector compiled = run_noisy_trajectory(plan, noise, plan_rng);
    for (std::uint64_t i = 0; i < raw.dimension(); ++i) {
      ASSERT_EQ(raw.amplitude(i).real(), compiled.amplitude(i).real())
          << "seed " << seed << " amplitude " << i;
      ASSERT_EQ(raw.amplitude(i).imag(), compiled.amplitude(i).imag())
          << "seed " << seed << " amplitude " << i;
    }
    // Identical draw counts: the generators are in the same state after.
    EXPECT_EQ(raw_rng.uniform(), plan_rng.uniform()) << "seed " << seed;
  }
}

TEST(Compiler, BackendNoisyPlanMatchesCircuitWalk) {
  Rng circuit_rng(13);
  const Circuit circuit = random_circuit(4, 20, circuit_rng);
  const NoiseModel noise{0.08, 0.15};
  const ExecutionPlan plan = noise_slot_plan(circuit);
  const std::vector<std::size_t> all{0, 1, 2, 3};

  // Trajectory engine: the same Pauli draws as a walk over the raw gates
  // (the backend drops the global phase; it cannot move a marginal).
  Statevector walked(4);
  Rng walk_rng(21);
  walk_gates_with_noise(circuit, noise, walked, [&](std::size_t q, double p) {
    maybe_apply_depolarizing(walked, q, p, walk_rng);
  });
  // Exact channels: the same channels at the same places, no draws.
  DensityMatrix rho(4);
  walk_gates_with_noise(circuit, noise, rho, [&](std::size_t q, double p) {
    rho.apply_depolarizing(q, p);
  });
  Rng untouched(21);

  for (SimulatorKind kind :
       {SimulatorKind::kStatevector, SimulatorKind::kDensityMatrix}) {
    const bool exact = kind == SimulatorKind::kDensityMatrix;
    const auto compiled = build_backend(kind, 4);
    Rng plan_rng(21);
    compiled->prepare_basis_state(0);
    compiled->apply_plan_with_noise(plan, noise, plan_rng);
    const auto pr = exact ? rho.marginal_probabilities(all)
                          : walked.marginal_probabilities(all);
    const auto pc = compiled->marginal_probabilities(all);
    for (std::size_t i = 0; i < pr.size(); ++i)
      EXPECT_EQ(pr[i], pc[i])
          << simulator_kind_name(kind) << " outcome " << i;
    Rng& reference_rng = exact ? untouched : walk_rng;
    EXPECT_EQ(reference_rng.uniform(), plan_rng.uniform())
        << simulator_kind_name(kind);
  }
}

TEST(Compiler, NoisyExecutionRejectsFusedPlan) {
  Circuit circuit(2);
  circuit.h(0);
  circuit.cnot(0, 1);
  CompilerOptions options;  // no noise slots
  const ExecutionPlan plan = compile_circuit(circuit, options);
  StatevectorBackend backend(2);
  Rng rng(5);
  EXPECT_THROW(
      backend.apply_plan_with_noise(plan, NoiseModel{0.1, 0.1}, rng), Error);
}

TEST(Compiler, ControlledPhaseLadderFusesIntoOneDiagonal) {
  // The QFT/QPE workhorse: every pair rung is diagonal, so the whole
  // ladder collapses into a single table-lookup pass.
  Circuit circuit(6);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b)
      circuit.controlled_phase(a, b, 0.1 * static_cast<double>(a + b));
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 1u);
  EXPECT_EQ(plan.stats().gates_before, 15u);
  EXPECT_EQ(plan.stats().gates_after, 1u);
  EXPECT_EQ(plan.stats().fused_blocks, 1u);
  EXPECT_EQ(plan.stats().diagonal_blocks, 1u);
  ASSERT_GT(plan.stats().block_width_histogram.size(), 6u);
  EXPECT_EQ(plan.stats().block_width_histogram[6], 1u);
  const CompiledOp& op = plan.ops()[0];
  EXPECT_EQ(op.kind, CompiledOp::Kind::kDiagonal);
  EXPECT_EQ(op.fused_gates, 15u);
  EXPECT_EQ(op.diagonal.size(), 64u);
}

TEST(Compiler, HWallStaysVerbatimUnderTheCostModel) {
  // A wall of H's has no profitable fusion single-threaded: a 2^m dense
  // block costs more multiplies than the m sweeps it would replace, so the
  // cost model keeps the gates verbatim rather than pessimize.
  Circuit circuit(8);
  for (std::size_t q = 0; q < 8; ++q) circuit.h(q);
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  EXPECT_EQ(plan.ops().size(), 8u);
  EXPECT_EQ(plan.stats().fused_blocks, 0u);
  for (const CompiledOp& op : plan.ops())
    EXPECT_EQ(op.kind, CompiledOp::Kind::kSingleQubit);
}

TEST(Compiler, SameWireChainFusesIntoOneSingleQubitOp) {
  Circuit circuit(3);
  for (int r = 0; r < 4; ++r) {
    circuit.h(1);
    circuit.t(1);
  }
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 1u);
  EXPECT_EQ(plan.ops()[0].kind, CompiledOp::Kind::kSingleQubit);
  EXPECT_EQ(plan.ops()[0].fused_gates, 8u);
}

TEST(Compiler, FusionReachesAcrossWireDisjointGates) {
  // H(0), Op(1,2), T(0): the trailing T commutes past the operator gate and
  // merges with the leading H.
  Circuit circuit(3);
  circuit.h(0);
  Rng rng(3);
  circuit.operator_gate(std::make_shared<DenseOperator>(random_unitary(2, rng)),
                        {1, 2});
  circuit.t(0);
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 2u);
  EXPECT_EQ(plan.stats().operator_gates, 1u);
  // The merged T·H block comes first (cluster creation order).
  EXPECT_EQ(plan.ops()[0].fused_gates, 2u);
  EXPECT_EQ(plan.ops()[1].kind, CompiledOp::Kind::kOperator);
}

TEST(Compiler, OperatorGatesPrecomputeLayout) {
  Circuit circuit(4);
  Rng rng(9);
  const auto op = std::make_shared<DenseOperator>(random_unitary(2, rng));
  circuit.operator_gate(op, {2, 3}, {0});  // trailing targets, one control
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 1u);
  const CompiledOp& compiled = plan.ops()[0];
  EXPECT_EQ(compiled.kind, CompiledOp::Kind::kOperator);
  EXPECT_TRUE(compiled.contiguous);
  // Control bit fixed to 1, one free qubit → 2 block bases.
  EXPECT_EQ(compiled.bases.size(), 2u);
}

TEST(Compiler, CancellationShrinksTrotterPlans) {
  // The Trotter fragments' basis walls and CNOT ladders leave inverse pairs
  // at family boundaries.  Each pin equals the op count of cancelling the
  // same pairs to a fixpoint in a separate pass and then compiling.
  struct Case {
    const char* name;
    SparseMatrix laplacian;
    TrotterOptions trotter;
    std::size_t gates, ops;
  };
  const SparseMatrix worked = sparse_combinatorial_laplacian(
      SimplicialComplex::from_simplices(
          {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}},
          true),
      1);
  Rng rng(2);
  RandomComplexOptions flag;
  flag.num_vertices = 9;
  flag.edge_probability = 0.5;
  const SimplicialComplex complex = random_flag_complex(flag, rng);
  ASSERT_EQ(complex.count(1), 19u);
  // Without cancellation the three plans had 866, 3,403 and 11,930 ops.
  const std::vector<Case> cases = {
      {"worked example, order 1, 1 step", worked, {1, 1}, 868, 838},
      {"worked example, order 2, 2 steps", worked, {2, 2}, 3409, 3263},
      {"9-vertex flag complex, order 1, 1 step",
       sparse_combinatorial_laplacian(complex, 1), {1, 1}, 11932, 9718},
  };
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitTrotter;
  options.precision_qubits = 3;
  options.delta = 6.0;
  for (const Case& test : cases) {
    options.trotter = test.trotter;
    const Circuit circuit = build_qtda_circuit(test.laplacian, options);
    const CompilerStats stats =
        compile_circuit(circuit, CompilerOptions{}).stats();
    EXPECT_EQ(stats.gates_before, test.gates) << test.name;
    EXPECT_EQ(stats.gates_after, test.ops) << test.name;
  }
}

TEST(Compiler, EnvOverridesParseAndValidate) {
  qtda::testing::ScopedSimulatorEnv guard;
  setenv("QTDA_FUSE", "0", 1);
  EXPECT_FALSE(compiler_options_from_env().fuse);
  setenv("QTDA_FUSE", "1", 1);
  EXPECT_TRUE(compiler_options_from_env().fuse);
  setenv("QTDA_FUSE", "yes", 1);
  EXPECT_THROW(compiler_options_from_env(), Error);
}

TEST(Compiler, EstimatorFusedMatchesUnfused) {
  // End-to-end plumbing: the estimator's compiled path (default) against
  // the escape hatch, same seed.  The amplitudes agree to ~1e-12, so the
  // multinomial draws land identically except on ~1e-12-wide boundary
  // slivers — equality of counts is the expected outcome.
  Rng rng(31);
  RandomComplexOptions complex_options;
  complex_options.num_vertices = 7;
  complex_options.max_dimension = 2;
  auto complex = random_flag_complex(complex_options, rng);
  while (complex.count(1) == 0)
    complex = random_flag_complex(complex_options, rng);

  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  options.shots = 4000;

  qtda::testing::ScopedSimulatorEnv guard;
  unsetenv("QTDA_FUSE");
  const auto fused = estimate_betti(complex, 1, options);
  setenv("QTDA_FUSE", "0", 1);
  const auto unfused = estimate_betti(complex, 1, options);
  EXPECT_EQ(fused.zero_counts, unfused.zero_counts);
  EXPECT_EQ(fused.rounded_betti, unfused.rounded_betti);
}

}  // namespace
