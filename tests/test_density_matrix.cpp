// Tests for quantum/density_matrix.hpp: exact mixed-state evolution and
// agreement with both the pure-state simulator and the trajectory sampler,
// including the matrix-free operator-gate path (row register verbatim,
// ConjugatedOperator on the column register) and the noisy sparse-oracle
// QPE convergence the NISQ comparison rests on.
#include "quantum/density_matrix.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>

#include "circuit_plans.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/backend.hpp"
#include "quantum/executor.hpp"
#include "quantum/gates.hpp"
#include "quantum/mixed_state.hpp"
#include "scoped_env.hpp"
#include "topology/laplacian.hpp"

namespace qtda {
namespace {

using testing::noise_slot_plan;
using testing::unfused_plan;

Circuit random_circuit(std::size_t n, int gates, Rng& rng) {
  Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    const std::size_t q = rng.uniform_index(n);
    switch (rng.uniform_index(5)) {
      case 0: c.h(q); break;
      case 1: c.t(q); break;
      case 2: c.rx(q, rng.uniform(-3.0, 3.0)); break;
      case 3: c.rz(q, rng.uniform(-3.0, 3.0)); break;
      default: {
        const std::size_t other = (q + 1 + rng.uniform_index(n - 1)) % n;
        c.cnot(q, other);
        break;
      }
    }
  }
  return c;
}

TEST(DensityMatrix, InitialStateIsPureZero) {
  DensityMatrix rho(2);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-14);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-14);
  EXPECT_NEAR(std::abs(rho.element(0, 0) - Amplitude{1.0, 0.0}), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(rho.element(1, 1)), 0.0, 1e-14);
}

TEST(DensityMatrix, MaximallyMixedProperties) {
  const auto rho = DensityMatrix::maximally_mixed(3);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-14);
  EXPECT_NEAR(rho.purity(), 1.0 / 8.0, 1e-14);
  for (std::uint64_t r = 0; r < 8; ++r)
    EXPECT_NEAR(rho.element(r, r).real(), 1.0 / 8.0, 1e-14);
}

TEST(DensityMatrix, FromStatevectorMatchesOuterProduct) {
  Statevector psi(1);
  psi.apply_single_qubit(gates::H(), 0);
  const auto rho = DensityMatrix::from_statevector(psi);
  for (std::uint64_t r = 0; r < 2; ++r)
    for (std::uint64_t c = 0; c < 2; ++c)
      EXPECT_NEAR(std::abs(rho.element(r, c) - Amplitude{0.5, 0.0}), 0.0,
                  1e-14);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-14);
}

class NoiselessAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NoiselessAgreement, DensityEvolutionMatchesPureState) {
  Rng rng(GetParam() * 23 + 1);
  const std::size_t n = 3;
  const Circuit circuit = random_circuit(n, 25, rng);

  const Statevector psi = run_circuit(circuit);
  const DensityMatrix rho = run_circuit_density(circuit);

  EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
  for (std::uint64_t r = 0; r < psi.dimension(); ++r) {
    for (std::uint64_t c = 0; c < psi.dimension(); ++c) {
      const Amplitude expected =
          psi.amplitude(r) * std::conj(psi.amplitude(c));
      EXPECT_NEAR(std::abs(rho.element(r, c) - expected), 0.0, 1e-10)
          << "r=" << r << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoiselessAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DensityMatrix, PurificationMarginalEqualsMaximallyMixed) {
  // Fig. 2 check at the density-matrix level: tracing out the ancillas of
  // the purification leaves exactly I/2^q.
  const std::size_t q = 2;
  Circuit prep(2 * q);
  append_mixed_state_preparation(prep, {0, 1}, {2, 3});
  const auto rho = run_circuit_density(prep);
  const auto marginal = rho.marginal_probabilities({2, 3});
  for (double p : marginal) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(DensityMatrix, DepolarizingAtFullStrengthMixesOneQubit) {
  DensityMatrix rho(1);  // pure |0⟩
  rho.apply_depolarizing(0, 1.0);
  // (1−p)ρ + p/3(XρX+YρY+ZρZ) at p=1 gives diag(1/3 + ... ) =
  // diag(1/3, 2/3): X and Y flip, Z keeps.
  EXPECT_NEAR(rho.element(0, 0).real(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rho.element(1, 1).real(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, RepeatedDepolarizingConvergesToMixed) {
  DensityMatrix rho(1);
  for (int i = 0; i < 60; ++i) rho.apply_depolarizing(0, 0.3);
  EXPECT_NEAR(rho.element(0, 0).real(), 0.5, 1e-6);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-6);
}

TEST(DensityMatrix, NoiseReducesPurityMonotonically) {
  Circuit bell(2);
  bell.h(0);
  bell.cnot(0, 1);
  double previous = 1.0;
  for (double p : {0.01, 0.05, 0.2}) {
    const auto rho = run_circuit_density(bell, NoiseModel{p, p});
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    EXPECT_LT(rho.purity(), previous);
    previous = rho.purity();
  }
}

TEST(DensityMatrix, TrajectoriesConvergeToExactChannel) {
  // The Monte-Carlo trajectory sampler is an unbiased estimator of the
  // exact channel: averaged outcome distributions agree within sampling
  // error.
  Circuit circuit(2);
  circuit.h(0);
  circuit.cnot(0, 1);
  circuit.rx(1, 0.7);
  const NoiseModel noise{0.05, 0.05};

  const auto exact = run_circuit_density(circuit, noise);
  const auto exact_marginal = exact.marginal_probabilities({0, 1});

  Rng rng(99);
  const ExecutionPlan plan = noise_slot_plan(circuit);
  const std::size_t trajectories = 4000;
  std::vector<double> sampled(4, 0.0);
  for (std::size_t i = 0; i < trajectories; ++i) {
    const auto psi = run_noisy_trajectory(plan, noise, rng);
    const auto probs = psi.marginal_probabilities({0, 1});
    for (std::size_t m = 0; m < 4; ++m) sampled[m] += probs[m];
  }
  for (std::size_t m = 0; m < 4; ++m) {
    sampled[m] /= static_cast<double>(trajectories);
    EXPECT_NEAR(sampled[m], exact_marginal[m], 0.03) << "outcome " << m;
  }
}

TEST(DensityMatrix, GlobalPhaseCancels) {
  Circuit c(1);
  c.h(0);
  c.add_global_phase(1.234);
  const auto rho = run_circuit_density(c);
  const auto pure = DensityMatrix::from_statevector([] {
    Statevector psi(1);
    psi.apply_single_qubit(gates::H(), 0);
    return psi;
  }());
  for (std::uint64_t r = 0; r < 2; ++r)
    for (std::uint64_t col = 0; col < 2; ++col)
      EXPECT_NEAR(std::abs(rho.element(r, col) - pure.element(r, col)), 0.0,
                  1e-12);
}

TEST(DensityMatrix, SampleCountsAreDeterministicGivenSeed) {
  const auto rho = DensityMatrix::maximally_mixed(2);
  Rng a(5), b(5);
  EXPECT_EQ(rho.sample_counts({0, 1}, 100, a),
            rho.sample_counts({0, 1}, 100, b));
}

TEST(DensityMatrix, SetBasisStateResetsToPureProjector) {
  DensityMatrix rho(2);
  rho.apply_gate([] {
    Gate g;
    g.kind = GateKind::kH;
    g.targets = {0};
    return g;
  }());
  rho.set_basis_state(2);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-14);
  EXPECT_NEAR(std::abs(rho.element(2, 2) - Amplitude{1.0, 0.0}), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(rho.element(0, 0)), 0.0, 1e-14);
  EXPECT_THROW(rho.set_basis_state(4), Error);
}

TEST(DensityMatrix, OperatorGateMatchesDenseGateEvolution) {
  // The same unitary as a dense kUnitary gate and as a matrix-free
  // kOperator gate must evolve ρ identically — the conjugated column-side
  // application is exactly conj(U) without forming it.
  Rng rng(77);
  const std::size_t dim = 4;
  RealMatrix h(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform() * 2.0 - 1.0;
  const ComplexMatrix u = unitary_exp(h);

  for (const std::vector<std::size_t>& controls :
       {std::vector<std::size_t>{}, std::vector<std::size_t>{0}}) {
    Circuit prep(3);
    prep.h(0);
    prep.ry(1, 0.8);
    prep.rx(2, -0.5);
    prep.cnot(0, 2);

    DensityMatrix dense_rho(3), op_rho(3);
    dense_rho.apply_plan(unfused_plan(prep));
    op_rho.apply_plan(unfused_plan(prep));
    // Mix things so the column register carries genuine coherences.
    dense_rho.apply_depolarizing(1, 0.1);
    op_rho.apply_depolarizing(1, 0.1);

    Circuit dense(3);
    dense.unitary(u, {1, 2}, controls);
    Circuit matrix_free(3);
    matrix_free.operator_gate(std::make_shared<DenseOperator>(u), {1, 2},
                              controls);
    dense_rho.apply_plan(unfused_plan(dense));
    op_rho.apply_plan(unfused_plan(matrix_free));

    for (std::uint64_t r = 0; r < 8; ++r)
      for (std::uint64_t c = 0; c < 8; ++c)
        EXPECT_NEAR(std::abs(dense_rho.element(r, c) - op_rho.element(r, c)),
                    0.0, 1e-12)
            << "controls=" << controls.size() << " r=" << r << " c=" << c;
  }
}

TEST(DensityMatrix, SparseOracleQpeMatchesPureStateNoiselessly) {
  // The full matrix-free QPE circuit (purification prep + operator-gate
  // controlled powers + inverse QFT) on ρ = |0⟩⟨0| must reproduce the pure
  // statevector outcome distribution exactly when no noise is applied.
  const Simplex triangle_edges[] = {{0, 1}, {0, 2}, {1, 2}};
  const auto complex = SimplicialComplex::from_simplices(
      {triangle_edges[0], triangle_edges[1], triangle_edges[2]}, true);
  const RealMatrix laplacian = combinatorial_laplacian(complex, 1);

  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  const Circuit circuit = build_qtda_circuit(laplacian, options);

  const Statevector psi = run_circuit(circuit);
  DensityMatrix rho(circuit.num_qubits());
  rho.apply_plan(unfused_plan(circuit));

  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
  const std::vector<std::size_t> measured{0, 1, 2};
  const auto expected = psi.marginal_probabilities(measured);
  const auto actual = rho.marginal_probabilities(measured);
  for (std::size_t m = 0; m < expected.size(); ++m)
    EXPECT_NEAR(actual[m], expected[m], 1e-9) << "outcome " << m;
}

TEST(DensityMatrix, NoisySparseOracleQpeTrajectoryEnsembleConverges) {
  // The acceptance check of the exact backend: a noisy QPE run with the
  // matrix-free sparse oracle, evolved exactly on ρ, is the limit of
  // run_noisy_trajectory ensembles — the outcome marginal must match the
  // mean over ≥200 trajectories within statistical tolerance.  No dense
  // 2^q×2^q oracle exists anywhere in this circuit (kOperator gates only).
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{0, 1}, Simplex{0, 2}, Simplex{1, 2}}, true);
  const RealMatrix laplacian = combinatorial_laplacian(complex, 1);

  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  const Circuit circuit = build_qtda_circuit(laplacian, options);
  std::size_t operator_gates = 0;
  for (const Gate& gate : circuit.gates())
    operator_gates += gate.kind == GateKind::kOperator ? 1 : 0;
  ASSERT_EQ(operator_gates, options.precision_qubits);

  const NoiseModel noise{0.02, 0.03};
  const ExecutionPlan plan = noise_slot_plan(circuit);
  DensityMatrix rho(circuit.num_qubits());
  rho.apply_plan_with_noise(plan, noise);
  const std::vector<std::size_t> measured{0, 1, 2};
  const auto exact = rho.marginal_probabilities(measured);

  Rng rng(2024);
  const std::size_t trajectories = 250;
  std::vector<double> mean(exact.size(), 0.0);
  for (std::size_t i = 0; i < trajectories; ++i) {
    const Statevector psi = run_noisy_trajectory(plan, noise, rng);
    const auto marginal = psi.marginal_probabilities(measured);
    for (std::size_t m = 0; m < mean.size(); ++m) mean[m] += marginal[m];
  }
  for (std::size_t m = 0; m < mean.size(); ++m) {
    mean[m] /= static_cast<double>(trajectories);
    EXPECT_NEAR(mean[m], exact[m], 0.03) << "outcome " << m;
  }
  // Noise strictly mixes the state, and the exact channel preserves trace.
  EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
  EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, EstimatorRunsNoisySparseOracleOnDensityBackend) {
  // End-to-end plumbing: EstimatorOptions::simulator = kDensityMatrix routes
  // a noisy kCircuitSparse estimate through the exact-channel engine (one
  // ensemble evolution, all shots sampled from it), and weak noise keeps the
  // estimate near the noiseless reference.
  const qtda::testing::ScopedSimulatorEnv restore_after;
  qtda::testing::ScopedSimulatorEnv::clear();
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{0, 1}, Simplex{0, 2}, Simplex{1, 2}}, true);

  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.simulator = SimulatorKind::kDensityMatrix;
  options.precision_qubits = 3;
  options.shots = 20000;
  options.noise = NoiseModel{0.001, 0.001};
  const BettiEstimate noisy = estimate_betti(complex, 1, options);

  EstimatorOptions noiseless = options;
  noiseless.simulator = SimulatorKind::kStatevector;
  noiseless.noise = NoiseModel{};
  const BettiEstimate reference = estimate_betti(complex, 1, noiseless);

  EXPECT_EQ(noisy.system_qubits, reference.system_qubits);
  EXPECT_GT(noisy.circuit_gates, 0u);
  EXPECT_NEAR(noisy.zero_probability, reference.zero_probability, 0.05);
  EXPECT_NEAR(noisy.estimated_betti, reference.estimated_betti, 0.5);

  // Sampled-basis mode exercises the exact-channel path per basis state.
  options.mixed_state = MixedStateMode::kSampledBasis;
  const BettiEstimate sampled = estimate_betti(complex, 1, options);
  EXPECT_NEAR(sampled.zero_probability, reference.zero_probability, 0.05);
}

TEST(DensityMatrix, PlanWalkStopsAtAnExpiredDeadline) {
  // simulator=density-matrix is a wire key, so a served request past its
  // deadline must stop between ops here too, not finish the evolution.
  Circuit circuit(2);
  circuit.h(0);
  circuit.cnot(0, 1);
  const ExecutionPlan plan = unfused_plan(circuit);
  DensityMatrixBackend backend(2);
  const cancel::ScopedDeadline expired(std::chrono::steady_clock::now() -
                                       std::chrono::milliseconds(1));
  EXPECT_THROW(backend.apply_plan(plan), CancelledError);
  EXPECT_EQ(backend.state().purity(), 1.0);
  EXPECT_EQ(backend.state().element(0, 0), Amplitude(1.0, 0.0));
}

TEST(DensityMatrix, NoisyPlanWalkStopsAtAnExpiredDeadline) {
  Circuit circuit(2);
  circuit.h(0);
  circuit.cnot(0, 1);
  const ExecutionPlan plan = noise_slot_plan(circuit);
  DensityMatrixBackend backend(2);
  Rng rng(6);
  const cancel::ScopedDeadline expired(std::chrono::steady_clock::now() -
                                       std::chrono::milliseconds(1));
  EXPECT_THROW(backend.apply_plan_with_noise(plan, NoiseModel{0.1, 0.1}, rng),
               CancelledError);
  EXPECT_EQ(backend.state().purity(), 1.0);
  EXPECT_EQ(backend.state().element(0, 0), Amplitude(1.0, 0.0));
}

TEST(DensityMatrix, Validation) {
  EXPECT_THROW(DensityMatrix(0), Error);
  EXPECT_THROW(DensityMatrix(14), Error);
  DensityMatrix rho(2);
  EXPECT_THROW(rho.apply_depolarizing(5, 0.1), Error);
  EXPECT_THROW(rho.apply_depolarizing(0, 1.5), Error);
  EXPECT_THROW(rho.element(4, 0), Error);
}

}  // namespace
}  // namespace qtda
