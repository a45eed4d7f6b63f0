// A statevector marked as a basis state |b⟩ runs a plan's leading
// single-qubit ops on the support of |b⟩ only (the fold) and resets to
// another basis state by clearing one amplitude.  These tests compare the
// folded path (set_basis_state(b) + apply_plan) byte for byte with the
// swept one (set_amplitudes(e_b) + apply_plan, and a sweep at every SIMD
// level the host has), count the folded ops of the estimator's evolutions,
// and check that every mutator clears the mark the O(1) reset relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "core/betti_estimator.hpp"
#include "circuit_plans.hpp"
#include "kernel_test_util.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/gates.hpp"
#include "quantum/mixed_state.hpp"
#include "quantum/noise.hpp"
#include "quantum/qft.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/simd_kernels.hpp"
#include "quantum/statevector.hpp"
#include "quantum/types.hpp"
#include "scoped_env.hpp"

namespace qtda {
namespace {

using testing::levels_up_to_detected;
using testing::random_vector;
using testing::same_bytes;

/// Clears the registry and turns collection off again on exit.
struct TelemetryOn {
  TelemetryOn() {
    telemetry::registry().reset_values();
    telemetry::set_enabled(true);
  }
  ~TelemetryOn() {
    telemetry::set_enabled(false);
    telemetry::registry().reset_values();
  }
  TelemetryOn(const TelemetryOn&) = delete;
  TelemetryOn& operator=(const TelemetryOn&) = delete;
};

std::uint64_t counter(const char* name) {
  return telemetry::registry().counter(name).value();
}

/// The purified estimator's prefix on t precision, q system and q ancilla
/// wires: H on each ancilla and a CNOT onto its system partner, then the
/// precision H wall.
Circuit purification_prefix(std::size_t t, std::size_t q) {
  Circuit c(t + 2 * q);
  std::vector<std::size_t> systems, ancillas;
  for (std::size_t i = 0; i < q; ++i) {
    systems.push_back(t + i);
    ancillas.push_back(t + q + i);
  }
  append_mixed_state_preparation(c, ancillas, systems);
  for (std::size_t j = 0; j < t; ++j) c.h(j);
  return c;
}

/// A QPE-shaped tail after the prefix: each precision wire controls an
/// operator gate on the last two wires (the oracle's op kind, which the
/// compiler never fuses), then the inverse QFT.  The fold stops at the
/// first operator op and the sweeps run the rest.
void append_qpe_tail(Circuit& c, std::size_t t) {
  Rng rng(7);
  ComplexMatrix u(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t col = 0; col < 4; ++col)
      u(r, col) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto oracle = std::make_shared<const DenseOperator>(u);
  const std::size_t n = c.num_qubits();
  std::vector<std::size_t> precision;
  for (std::size_t j = 0; j < t; ++j) {
    c.operator_gate(oracle, {n - 2, n - 1}, {j});
    precision.push_back(j);
  }
  append_inverse_qft(c, precision);
}

ExecutionPlan plan_of(const Circuit& c, bool fuse) {
  CompilerOptions options;
  options.fuse = fuse;
  return compile_circuit(c, options);
}

template <typename R>
std::vector<std::complex<R>> basis_vector(std::size_t n, std::uint64_t b) {
  std::vector<std::complex<R>> e(std::uint64_t{1} << n);
  e[b] = {R{1}, R{0}};
  return e;
}

/// The engine's single-qubit kernel at an explicit dispatch level: the
/// same pair runs to the same sweep.
template <typename R>
void sweep_single_qubit(SimdLevel level, std::vector<std::complex<R>>& amp,
                        const CompiledOp& op) {
  using C = std::complex<R>;
  const C u[4] = {static_cast<C>(op.u00), static_cast<C>(op.u01),
                  static_cast<C>(op.u10), static_cast<C>(op.u11)};
  const std::uint64_t dim = amp.size();
  const std::uint64_t touched = op.tmask | op.cmask;
  const std::uint64_t run = touched & (~touched + 1);
  if (run < 4) {
    simd::bit01_pair_sweep(level, amp.data(), dim, op.tmask, op.cmask, u);
    return;
  }
  for_each_block_base(dim, op.tmask | (run - 1), op.cmask,
                      [&](std::uint64_t base) {
    simd::pair_sweep(level, amp.data() + base, amp.data() + base + op.tmask,
                     run, u);
  });
}

/// Folds \p plan from |b⟩, checks the bytes against the engine's sweep of
/// e_b and, for plans of single-qubit ops only, against a sweep at every
/// SIMD level.  Returns the number of ops folded.
template <typename R>
std::uint64_t expect_fold_matches_sweep(const ExecutionPlan& plan,
                                        std::uint64_t b,
                                        const std::string& label) {
  const std::size_t n = plan.num_qubits();
  const std::uint64_t before = counter("exec.ops.folded");
  BasicStatevector<R> folded(n);
  folded.set_basis_state(b);
  folded.apply_plan(plan);
  const std::uint64_t folded_ops = counter("exec.ops.folded") - before;

  BasicStatevector<R> swept(n);
  swept.set_amplitudes(basis_vector<R>(n, b));
  swept.apply_plan(plan);
  EXPECT_EQ(counter("exec.ops.folded"), before + folded_ops)
      << label << ": an unmarked state folded";
  EXPECT_TRUE(same_bytes(folded.amplitudes(), swept.amplitudes())) << label;

  bool single_qubit_only = plan.global_phase() == 0.0;
  for (const CompiledOp& op : plan.ops())
    single_qubit_only &= op.kind == CompiledOp::Kind::kSingleQubit;
  if (single_qubit_only) {
    for (SimdLevel level : levels_up_to_detected()) {
      std::vector<std::complex<R>> amp = basis_vector<R>(n, b);
      for (const CompiledOp& op : plan.ops())
        sweep_single_qubit(level, amp, op);
      EXPECT_TRUE(same_bytes(folded.amplitudes(), amp))
          << label << " at SIMD level " << static_cast<int>(level);
    }
  }
  return folded_ops;
}

template <typename R>
void expect_purification_prefixes_fold() {
  TelemetryOn telemetry_on;
  struct Shape {
    std::size_t t, n;
  };
  for (const Shape shape :
       {Shape{3, 5}, Shape{3, 7}, Shape{3, 9}, Shape{3, 13}, Shape{3, 15},
        Shape{3, 17}, Shape{5, 9}}) {
    const std::size_t q = (shape.n - shape.t) / 2;
    const Circuit prefix = purification_prefix(shape.t, q);
    Circuit qpe = prefix;
    append_qpe_tail(qpe, shape.t);
    for (const bool fuse : {true, false}) {
      const std::string label = "t=" + std::to_string(shape.t) +
                                " n=" + std::to_string(shape.n) +
                                (fuse ? " fused" : " unfused");
      const ExecutionPlan prefix_plan = plan_of(prefix, fuse);
      ASSERT_EQ(prefix_plan.ops().size(), 2 * q + shape.t) << label;
      const std::uint64_t folded =
          expect_fold_matches_sweep<R>(prefix_plan, 0, label);
      // The support ends at 2^(t+q) amplitudes, 2^−q of the register: the
      // whole prefix folds once that is at most 1/16.
      if (q >= 4) {
        EXPECT_EQ(folded, 2 * q + shape.t) << label;
      } else {
        EXPECT_GT(folded, 0u) << label;
      }
      EXPECT_EQ(expect_fold_matches_sweep<R>(plan_of(qpe, fuse), 0,
                                             label + " + QPE tail"),
                folded)
          << label;
    }
  }
}

TEST(BasisFold, PurificationPrefixesMatchTheSweepFloat64) {
  expect_purification_prefixes_fold<double>();
}

TEST(BasisFold, PurificationPrefixesMatchTheSweepFloat32) {
  expect_purification_prefixes_fold<float>();
}

/// The sampled-basis evolution: the system register holds |basis⟩ and the
/// plan starts with the precision H wall.
template <typename R>
void expect_sampled_basis_walls_fold() {
  TelemetryOn telemetry_on;
  constexpr std::size_t kT = 3, kQ = 5;
  Circuit wall(kT + kQ);
  for (std::size_t j = 0; j < kT; ++j) wall.h(j);
  Circuit qpe = wall;
  append_qpe_tail(qpe, kT);
  for (const bool fuse : {true, false}) {
    for (const std::uint64_t basis : {1u, 6u, 19u, 31u}) {
      const std::string label = "basis " + std::to_string(basis) +
                                (fuse ? " fused" : " unfused");
      EXPECT_EQ(expect_fold_matches_sweep<R>(plan_of(wall, fuse), basis,
                                             label),
                kT)
          << label;
      EXPECT_EQ(
          expect_fold_matches_sweep<R>(plan_of(qpe, fuse), basis,
                                       label + " + QPE tail"),
          kT)
          << label;
    }
  }
}

TEST(BasisFold, SampledBasisWallsMatchTheSweepFloat64) {
  expect_sampled_basis_walls_fold<double>();
}

TEST(BasisFold, SampledBasisWallsMatchTheSweepFloat32) {
  expect_sampled_basis_walls_fold<float>();
}

/// RY(2π) turns a zero pair into (−0, +0): the sweep writes that to every
/// pair, so the fold must stop at it and sweep it with the rest.
template <typename R>
void expect_negative_zero_op_stops_the_fold() {
  TelemetryOn telemetry_on;
  constexpr std::size_t kN = 10;
  Circuit c(kN);
  c.h(3);
  c.cnot(3, 9);
  c.ry(5, 2.0 * kPi);
  c.h(7);
  for (const bool fuse : {true, false}) {
    const ExecutionPlan plan = plan_of(c, fuse);
    ASSERT_EQ(plan.ops().size(), 4u);
    EXPECT_EQ(expect_fold_matches_sweep<R>(plan, 0, "ry(2pi)"), 2u);
    EXPECT_EQ(expect_fold_matches_sweep<R>(plan, 37, "ry(2pi) from 37"), 2u);
  }
  // The zero pairs really are −0 after the sweep, so skipping them would
  // have shown.
  BasicStatevector<R> state(kN);
  state.set_basis_state(0);
  state.apply_plan(plan_of(c, false));
  EXPECT_TRUE(std::signbit(state.amplitude(2).real()));
}

TEST(BasisFold, NegativeZeroUpdateStopsTheFoldFloat64) {
  expect_negative_zero_op_stops_the_fold<double>();
}

TEST(BasisFold, NegativeZeroUpdateStopsTheFoldFloat32) {
  expect_negative_zero_op_stops_the_fold<float>();
}

/// An H wall on every wire doubles the support at each op.  The fold stops
/// at the first op that could take it past 1/16 of the register, after
/// n − 4 ops, and sweeps the last four.
template <typename R>
void expect_full_wall_stops_at_the_cap() {
  TelemetryOn telemetry_on;
  for (const std::size_t n : {5u, 8u, 12u, 16u}) {
    Circuit c(n);
    for (std::size_t w = 0; w < n; ++w) c.h(w);
    for (const bool fuse : {true, false}) {
      const ExecutionPlan plan = plan_of(c, fuse);
      ASSERT_EQ(plan.ops().size(), n);
      EXPECT_EQ(expect_fold_matches_sweep<R>(
                    plan, 5, "H wall n=" + std::to_string(n)),
                n - 4);
    }
  }
}

TEST(BasisFold, FullHadamardWallStopsAtTheCapFloat64) {
  expect_full_wall_stops_at_the_cap<double>();
}

TEST(BasisFold, FullHadamardWallStopsAtTheCapFloat32) {
  expect_full_wall_stops_at_the_cap<float>();
}

/// Path-graph Laplacian of dimension d: padded to 2^q with q = ⌈log2 d⌉.
SparseMatrix path_laplacian(std::size_t d) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < d; ++i) {
    const int degree = (i > 0 ? 1 : 0) + (i + 1 < d ? 1 : 0);
    triplets.push_back({i, i, static_cast<double>(degree)});
    if (i + 1 < d) {
      triplets.push_back({i, i + 1, -1.0});
      triplets.push_back({i + 1, i, -1.0});
    }
  }
  return SparseMatrix::from_triplets(d, d, std::move(triplets));
}

EstimatorOptions sparse_options(MixedStateMode mode) {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.mixed_state = mode;
  options.precision_qubits = 3;
  options.shots = 2000;
  return options;
}

TEST(BasisFold, PurifiedEstimateFoldsItsWholePrefix) {
  testing::ScopedSimulatorEnv env;
  testing::ScopedSimulatorEnv::clear();
  TelemetryOn telemetry_on;
  const SparseMatrix laplacian = path_laplacian(12);  // q = 4
  const EstimatorOptions options =
      sparse_options(MixedStateMode::kPurification);
  const CompiledEstimate compiled = compile_betti_estimate(laplacian, options);
  ASSERT_EQ(compiled.system_qubits, 4u);
  std::uint64_t single_qubit_ops = 0;
  for (const CompiledOp& op : compiled.plan->ops())
    single_qubit_ops += op.kind == CompiledOp::Kind::kSingleQubit;
  telemetry::registry().reset_values();
  estimate_betti_with_plan(compiled, options);
  EXPECT_EQ(counter("exec.ops.folded"), 2u * 4u + 3u);
  // Folded ops still count once among the single-qubit ops.
  EXPECT_EQ(counter("exec.ops.single_qubit"), single_qubit_ops);

  // The daemon's batched path folds its one evolution too.
  telemetry::registry().reset_values();
  estimate_betti_batch(compiled, {options, options});
  EXPECT_EQ(counter("exec.ops.folded"), 2u * 4u + 3u);
}

TEST(BasisFold, SampledBasisEstimateFoldsEachEvolutionsWall) {
  testing::ScopedSimulatorEnv env;
  testing::ScopedSimulatorEnv::clear();
  TelemetryOn telemetry_on;
  const EstimatorOptions options = sparse_options(MixedStateMode::kSampledBasis);
  estimate_betti_from_sparse_laplacian(path_laplacian(12), options);
  // One evolution per occupied basis state (2000 shots over 16 states
  // occupy all of them), each running t operator ops after its wall.
  const std::uint64_t evolutions = counter("exec.ops.operator") / 3;
  EXPECT_EQ(evolutions, 16u);
  EXPECT_EQ(counter("exec.ops.folded"), 3u * evolutions);
}

TEST(BasisFold, NoisyAndDensityMatrixEstimatesDoNotFold) {
  testing::ScopedSimulatorEnv env;
  testing::ScopedSimulatorEnv::clear();
  TelemetryOn telemetry_on;
  EstimatorOptions noisy = sparse_options(MixedStateMode::kPurification);
  noisy.shots = 20;
  noisy.noise.single_qubit_error = 0.01;
  noisy.noise.two_qubit_error = 0.02;
  estimate_betti_from_sparse_laplacian(path_laplacian(12), noisy);
  EXPECT_GT(counter("exec.ops.single_qubit"), 0u);
  EXPECT_EQ(counter("exec.ops.folded"), 0u);

  telemetry::registry().reset_values();
  EstimatorOptions density = sparse_options(MixedStateMode::kPurification);
  density.simulator = SimulatorKind::kDensityMatrix;
  estimate_betti_from_sparse_laplacian(path_laplacian(4), density);  // q = 2
  EXPECT_GT(counter("exec.ops.single_qubit"), 0u);
  EXPECT_EQ(counter("exec.ops.folded"), 0u);
}

/// After each mutator, set_basis_state(b) must leave exactly |b⟩ (every
/// other amplitude +0 bytes) and a following plan must fold to the sweep's
/// bytes.  A mutator that left a stale mark would make the one-amplitude
/// reset keep whatever it wrote.
template <typename R>
void expect_reset_after_every_mutator() {
  using C = std::complex<R>;
  constexpr std::size_t kN = 11;
  constexpr std::uint64_t kStart = 3, kTarget = 1234;
  Circuit spread(kN);
  spread.h(0);
  spread.h(10);
  spread.ry(4, 0.3);
  const ExecutionPlan spread_plan = testing::unfused_plan(spread);
  const ExecutionPlan noisy_plan = testing::noise_slot_plan(spread);
  NoiseModel noise;
  noise.single_qubit_error = 0.5;
  Rng rng(41);
  ComplexMatrix two_qubit(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      two_qubit(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const DenseOperator dense_op(two_qubit);
  Circuit one_gate(kN);
  one_gate.ry(9, -1.1);
  const ExecutionPlan prefix = compile_circuit(purification_prefix(3, 4),
                                               CompilerOptions{});

  using Mutator = std::function<void(BasicStatevector<R>&)>;
  const std::vector<std::pair<std::string, Mutator>> mutators = {
      {"apply_gate", [&](auto& s) { s.apply_gate(one_gate.gates()[0]); }},
      {"apply_single_qubit",
       [&](auto& s) { s.apply_single_qubit(gates::H(), 2, {10}); }},
      {"apply_unitary", [&](auto& s) { s.apply_unitary(two_qubit, {1, 8}); }},
      {"apply_operator", [&](auto& s) { s.apply_operator(dense_op, {9, 10}); }},
      {"apply_plan", [&](auto& s) { s.apply_plan(spread_plan); }},
      {"apply_plan_op",
       [&](auto& s) {
         s.apply_plan_op(spread_plan.ops()[1], spread_plan.scratch());
       }},
      {"apply_plan_with_noise",
       [&](auto& s) { s.apply_plan_with_noise(noisy_plan, noise, rng); }},
      {"apply_global_phase", [&](auto& s) { s.apply_global_phase(kPi); }},
      {"normalize", [&](auto& s) { s.normalize(); }},
      {"set_amplitudes",
       [&](auto& s) {
         s.set_amplitudes(random_vector<R>(std::size_t{1} << kN, rng));
       }},
      {"mutable_amplitudes",
       [&](auto& s) { s.mutable_amplitudes()[77] = C{R{0.5}, -R{0}}; }},
  };
  const std::vector<C> expected = basis_vector<R>(kN, kTarget);
  BasicStatevector<R> swept(kN);
  swept.set_amplitudes(expected);
  swept.apply_plan(prefix);
  for (const auto& [name, mutate] : mutators) {
    BasicStatevector<R> state(kN);
    state.set_basis_state(kStart);
    mutate(state);
    state.set_basis_state(kTarget);
    EXPECT_TRUE(same_bytes(state.amplitudes(), expected)) << name;
    state.apply_plan(prefix);
    EXPECT_TRUE(same_bytes(state.amplitudes(), swept.amplitudes())) << name;
  }
}

TEST(BasisFold, ResetAfterEveryMutatorIsExactlyTheBasisStateFloat64) {
  expect_reset_after_every_mutator<double>();
}

TEST(BasisFold, ResetAfterEveryMutatorIsExactlyTheBasisStateFloat32) {
  expect_reset_after_every_mutator<float>();
}

}  // namespace
}  // namespace qtda
