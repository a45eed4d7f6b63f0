// Backend-contract conformance suite: every SimulatorKind must satisfy the
// same observable semantics through the SimulatorBackend interface — basis
// state preparation, plans of named/dense/operator gates, marginal and
// sampling invariants, and the channel semantics its exact_channels() flag
// advertises.  New engines get conformance coverage by appearing in the
// INSTANTIATE list; nothing else in this file names a concrete engine.
#include "quantum/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "circuit_plans.hpp"
#include "common/random.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/noise.hpp"
#include "scoped_env.hpp"
#include "simulator_kind_names.hpp"

namespace qtda {
namespace {

using testing::noise_slot_plan;
using testing::unfused_plan;
using testing::walk_gates_with_noise;

/// Random real symmetric matrix → random unitary e^{iH} of dimension 2^m.
ComplexMatrix random_unitary(std::size_t m, Rng& rng) {
  const std::size_t dim = std::size_t{1} << m;
  RealMatrix h(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform() * 2.0 - 1.0;
  return unitary_exp(h);
}

/// A small circuit exercising named gates, controls and rotations.
Circuit named_gate_circuit() {
  Circuit c(3);
  c.h(0);
  c.cnot(0, 1);
  c.ry(2, 0.7);
  c.t(1);
  c.cz(1, 2);
  c.rz(0, -0.4);
  return c;
}

class BackendContract : public ::testing::TestWithParam<SimulatorKind> {
 protected:
  // The member guard saves the incoming QTDA_SIMULATOR value before the
  // body clears it: this suite pins *which* engine it builds, so the CI
  // overrides must not redirect the factory here.
  BackendContract() { testing::ScopedSimulatorEnv::clear(); }

  std::unique_ptr<SimulatorBackend> make(std::size_t num_qubits) const {
    return make_simulator(GetParam(), num_qubits);
  }

  // The float32 CI leg routes this whole suite through the narrow engines
  // via QTDA_PRECISION; probability-level assertions scale with the
  // amplitude scalar (~1e-7 relative error per float32 amplitude).
  static bool float32() {
    return precision_from_env() == Precision::kFloat32;
  }
  static double prob_tol() { return float32() ? 5e-6 : 1e-10; }
  static double tight_tol() { return float32() ? 1e-6 : 1e-12; }

 private:
  testing::ScopedSimulatorEnv restore_after_;
};

TEST_P(BackendContract, FactoryNameRoundTrip) {
  const auto backend = make(3);
  EXPECT_EQ(backend->name(), simulator_kind_name(GetParam()));
  EXPECT_EQ(backend->num_qubits(), 3u);
  EXPECT_EQ(simulator_kind_from_name(backend->name()), GetParam());
  EXPECT_NE(simulator_kind_names().find(backend->name()), std::string::npos);
}

TEST_P(BackendContract, BasisStatePreparation) {
  const auto backend = make(3);
  const std::vector<std::size_t> all{0, 1, 2};
  for (std::uint64_t index : {0u, 3u, 5u, 7u}) {
    backend->prepare_basis_state(index);
    const auto marginal = backend->marginal_probabilities(all);
    ASSERT_EQ(marginal.size(), 8u);
    for (std::uint64_t m = 0; m < marginal.size(); ++m)
      EXPECT_NEAR(marginal[m], m == index ? 1.0 : 0.0, 1e-12)
          << "prepared " << index << ", outcome " << m;
  }
}

TEST_P(BackendContract, NamedGatesMatchReferenceStatevector) {
  const Circuit circuit = named_gate_circuit();
  Statevector reference(3);
  reference.set_basis_state(5);
  for (const Gate& gate : circuit.gates()) reference.apply_gate(gate);

  const auto backend = make(3);
  backend->prepare_basis_state(5);
  backend->apply_plan(unfused_plan(circuit));
  const auto marginal = backend->marginal_probabilities({0, 1, 2});
  const auto expected = reference.probabilities();
  for (std::uint64_t m = 0; m < 8; ++m)
    EXPECT_NEAR(marginal[m], expected[m], prob_tol()) << "outcome " << m;
}

TEST_P(BackendContract, DenseGateOperatorGateAndApplyOperatorAgree) {
  // The same unitary routed three ways — dense kUnitary gate, kOperator
  // gate in an unfused plan, and the operator behind a fused prefix — must
  // yield the same distribution, including under a control.
  Rng rng(31);
  const ComplexMatrix u = random_unitary(2, rng);
  const auto op = std::make_shared<DenseOperator>(u);
  const std::vector<std::size_t> targets{1, 2};
  const std::vector<std::size_t> controls{0};

  Circuit dense(3);
  dense.h(0);
  dense.ry(1, 0.9);
  dense.rx(2, -1.1);
  Circuit matrix_free = dense;
  dense.unitary(u, targets, controls);
  matrix_free.operator_gate(op, targets, controls);

  const auto dense_backend = make(3);
  dense_backend->prepare_basis_state(0);
  dense_backend->apply_plan(unfused_plan(dense));

  const auto op_backend = make(3);
  op_backend->prepare_basis_state(0);
  op_backend->apply_plan(unfused_plan(matrix_free));

  const auto fused_backend = make(3);
  fused_backend->prepare_basis_state(0);
  fused_backend->apply_plan(compile_circuit(matrix_free, CompilerOptions{}));

  const auto expected = dense_backend->marginal_probabilities({0, 1, 2});
  const auto via_gate = op_backend->marginal_probabilities({0, 1, 2});
  const auto via_fused = fused_backend->marginal_probabilities({0, 1, 2});
  for (std::uint64_t m = 0; m < 8; ++m) {
    EXPECT_NEAR(via_gate[m], expected[m], prob_tol()) << "outcome " << m;
    EXPECT_NEAR(via_fused[m], expected[m], prob_tol()) << "outcome " << m;
  }
}

TEST_P(BackendContract, MarginalAndSamplingInvariants) {
  const auto backend = make(3);
  backend->prepare_basis_state(0);
  backend->apply_plan(unfused_plan(named_gate_circuit()));

  // Marginals are distributions, and coarser marginals are consistent with
  // finer ones.
  const auto full = backend->marginal_probabilities({0, 1, 2});
  EXPECT_NEAR(std::accumulate(full.begin(), full.end(), 0.0), 1.0,
              prob_tol());
  const auto pair = backend->marginal_probabilities({0, 1});
  const auto single = backend->marginal_probabilities({0});
  for (std::uint64_t m = 0; m < 2; ++m)
    EXPECT_NEAR(single[m], pair[2 * m] + pair[2 * m + 1], tight_tol());

  // Shots are conserved and sampling is deterministic given the seed.
  Rng rng_a(17), rng_b(17);
  const auto counts_a = backend->sample({0, 1}, 1000, rng_a);
  const auto counts_b = backend->sample({0, 1}, 1000, rng_b);
  EXPECT_EQ(counts_a, counts_b);
  EXPECT_EQ(std::accumulate(counts_a.begin(), counts_a.end(),
                            std::uint64_t{0}),
            1000u);
}

TEST_P(BackendContract, ZeroProbabilityDepolarizingIsNoop) {
  Circuit prep(2);
  prep.h(0);
  prep.cnot(0, 1);
  Circuit gate(2);
  gate.ry(0, 0.4);
  const auto ideal = make(2);
  ideal->prepare_basis_state(0);
  ideal->apply_plan(unfused_plan(prep));
  ideal->apply_plan(unfused_plan(gate));
  const auto noisy = make(2);
  noisy->prepare_basis_state(0);
  noisy->apply_plan(unfused_plan(prep));
  Rng rng(3), untouched(3);
  noisy->apply_plan_with_noise(noise_slot_plan(gate), NoiseModel{0.0, 0.0},
                               rng);
  EXPECT_EQ(ideal->marginal_probabilities({0, 1}),
            noisy->marginal_probabilities({0, 1}));
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST_P(BackendContract, ExactChannelsFlagMatchesRngConsumption) {
  // Exact-channel engines must not consume the Rng (the flag is the license
  // for callers to draw every shot from one noisy evolution); trajectory
  // engines consume one Bernoulli draw per potential event.
  Circuit gate(2);
  gate.x(0);
  const auto backend = make(2);
  backend->prepare_basis_state(0);
  Rng used(11), untouched(11);
  backend->apply_plan_with_noise(noise_slot_plan(gate), NoiseModel{0.5, 0.5},
                                 used);
  if (backend->exact_channels()) {
    EXPECT_EQ(used.next(), untouched.next());
  } else {
    EXPECT_NE(used.next(), untouched.next());
  }
}

TEST_P(BackendContract, NoisyCircuitMatchesChannelSemantics) {
  const Circuit circuit = named_gate_circuit();
  const NoiseModel noise{0.05, 0.08};
  const auto backend = make(3);
  Rng rng(7);
  backend->prepare_basis_state(0);
  backend->apply_plan_with_noise(noise_slot_plan(circuit), noise, rng);
  const auto marginal = backend->marginal_probabilities({0, 1, 2});

  std::vector<double> expected;
  if (backend->exact_channels()) {
    // Ensemble evolution: the exact channels, gate by gate.
    DensityMatrix rho(3);
    walk_gates_with_noise(circuit, noise, rho, [&](std::size_t q, double p) {
      rho.apply_depolarizing(q, p);
    });
    expected = rho.marginal_probabilities({0, 1, 2});
  } else {
    // One stochastic trajectory: identical error placement and RNG stream
    // as the gate-by-gate walk.
    Rng reference_rng(7);
    Statevector psi(3);
    walk_gates_with_noise(circuit, noise, psi, [&](std::size_t q, double p) {
      maybe_apply_depolarizing(psi, q, p, reference_rng);
    });
    expected = psi.marginal_probabilities({0, 1, 2});
  }
  for (std::uint64_t m = 0; m < 8; ++m)
    EXPECT_NEAR(marginal[m], expected[m], tight_tol()) << "outcome " << m;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BackendContract,
    ::testing::Values(SimulatorKind::kStatevector,
                      SimulatorKind::kDensityMatrix),
    testing::simulator_kind_test_name);

}  // namespace
}  // namespace qtda
