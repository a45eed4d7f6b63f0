// Circuit-level end-to-end checks on the actual QTDA workload: the
// compiler's inverse-pair cancellation must preserve the QPE outcome
// distribution of the paper's Trotterized circuit, and the density-matrix
// simulator must agree with the state-vector simulator on it.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit_plans.hpp"
#include "core/betti_estimator.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/executor.hpp"
#include "quantum/compiler.hpp"
#include "quantum/qpe.hpp"
#include "topology/laplacian.hpp"
#include "topology/simplicial_complex.hpp"

namespace qtda {
namespace {

using testing::unfused_plan;

RealMatrix hollow_triangle_laplacian() {
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{0, 1}, Simplex{1, 2}, Simplex{0, 2}}, true);
  return combinatorial_laplacian(complex, 1);
}

EstimatorOptions trotter_options() {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitTrotter;
  options.precision_qubits = 3;
  options.shots = 100;
  options.trotter = {2, 2};
  return options;
}

TEST(EndToEndCircuit, OptimizerPreservesQpeDistribution) {
  const auto laplacian = hollow_triangle_laplacian();
  const auto options = trotter_options();
  const Circuit circuit = build_qtda_circuit(laplacian, options);

  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  EXPECT_GT(plan.stats().cancelled_pairs, 0u);
  EXPECT_LT(plan.stats().gates_after, plan.stats().gates_before);

  QpeLayout layout{options.precision_qubits, 2, 2};
  const auto wires = layout.precision_wires();
  const auto before = run_circuit(circuit).marginal_probabilities(wires);
  Statevector compiled(circuit.num_qubits());
  compiled.apply_plan(plan);
  const auto after = compiled.marginal_probabilities(wires);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t m = 0; m < before.size(); ++m)
    EXPECT_NEAR(before[m], after[m], 1e-10) << "outcome " << m;
}

TEST(EndToEndCircuit, BuildQtdaCircuitMatchesEstimatorAccounting) {
  const auto laplacian = hollow_triangle_laplacian();
  const auto options = trotter_options();
  const Circuit circuit = build_qtda_circuit(laplacian, options);
  const auto estimate = estimate_betti_from_laplacian(laplacian, options);
  EXPECT_EQ(circuit.gate_count(), estimate.circuit_gates);
  EXPECT_EQ(circuit.depth(), estimate.circuit_depth);
  EXPECT_EQ(circuit.num_qubits(), estimate.total_qubits);
}

TEST(EndToEndCircuit, BuildQtdaCircuitRejectsAnalyticBackend) {
  EstimatorOptions options;  // defaults to kAnalytic
  EXPECT_THROW(build_qtda_circuit(hollow_triangle_laplacian(), options),
               Error);
}

TEST(EndToEndCircuit, DensityMatrixAgreesWithStatevectorOnQtdaCircuit) {
  const auto laplacian = hollow_triangle_laplacian();
  EstimatorOptions options = trotter_options();
  options.backend = EstimatorBackend::kCircuitExact;
  const Circuit circuit = build_qtda_circuit(laplacian, options);

  QpeLayout layout{options.precision_qubits, 2, 2};
  const auto wires = layout.precision_wires();
  const auto pure = run_circuit(circuit).marginal_probabilities(wires);
  const auto mixed = run_circuit_density(circuit).marginal_probabilities(wires);
  for (std::size_t m = 0; m < pure.size(); ++m)
    EXPECT_NEAR(pure[m], mixed[m], 1e-9) << "outcome " << m;
}

TEST(EndToEndCircuit, SampledBasisAverageEqualsPurifiedMarginal) {
  // Averaging the QPE distribution over all initial basis states (the
  // classical mixture) must equal the purified circuit's marginal.
  const auto laplacian = hollow_triangle_laplacian();
  EstimatorOptions options = trotter_options();
  options.backend = EstimatorBackend::kCircuitExact;

  // Purified circuit: t + q + q wires.
  const Circuit purified = build_qtda_circuit(laplacian, options);
  QpeLayout purified_layout{options.precision_qubits, 2, 2};
  const auto purified_marginal =
      run_circuit(purified).marginal_probabilities(
          purified_layout.precision_wires());

  // Sampled-basis circuit: t + q wires, averaged by hand.
  options.mixed_state = MixedStateMode::kSampledBasis;
  const Circuit bare = build_qtda_circuit(laplacian, options);
  QpeLayout bare_layout{options.precision_qubits, 2, 0};
  std::vector<double> averaged(1 << options.precision_qubits, 0.0);
  const std::uint64_t q_dim = 4;
  for (std::uint64_t basis = 0; basis < q_dim; ++basis) {
    Statevector state(bare.num_qubits());
    state.set_basis_state(basis);  // system wires are the lowest bits
    state.apply_plan(unfused_plan(bare));
    const auto marginal =
        state.marginal_probabilities(bare_layout.precision_wires());
    for (std::size_t m = 0; m < averaged.size(); ++m)
      averaged[m] += marginal[m] / static_cast<double>(q_dim);
  }
  for (std::size_t m = 0; m < averaged.size(); ++m)
    EXPECT_NEAR(averaged[m], purified_marginal[m], 1e-9) << "outcome " << m;
}

}  // namespace
}  // namespace qtda
