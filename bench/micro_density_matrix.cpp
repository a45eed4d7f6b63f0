/// \file micro_density_matrix.cpp
/// \brief google-benchmark microbenches for the exact-channel engine.
///
/// The headline pair is BM_ExactChannelQpe/q against
/// BM_TrajectoryEnsembleQpe/q at *matched accuracy*: one exact ρ evolution
/// of a noisy sparse-oracle QPE circuit versus the ~200-trajectory
/// run_noisy_trajectory ensemble whose mean marginal reaches the same few-%
/// statistical tolerance the convergence tests assert.  The exact channel
/// pays 4^n storage once; the ensemble pays one 2^n evolution per
/// trajectory, per shot batch.  BM_DepolarizingChannel tracks the in-place
/// channel kernel (one pass over vec(ρ), no full-vector copies).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/noise.hpp"
#include "topology/laplacian.hpp"
#include "topology/simplicial_complex.hpp"

namespace {

using namespace qtda;

/// Trajectories needed for ~3% marginal accuracy — the tolerance the
/// convergence tests (and the example's --verify) use.  This is the matched
/// workload of the exact-vs-ensemble comparison.
constexpr std::size_t kMatchedTrajectories = 200;

constexpr double kSingleQubitError = 0.01;
constexpr double kTwoQubitError = 0.02;

/// Noisy sparse-oracle QPE circuit over the Δ_1 of a small flag complex:
/// q system qubits come from padding |S_1| to the next power of two, with
/// the register totalling t + 2q wires under purification.
Circuit qpe_circuit(std::size_t vertices, std::size_t precision) {
  std::vector<Simplex> edges;
  for (VertexId a = 0; a < vertices; ++a)
    for (VertexId b = a + 1; b < vertices; ++b)
      edges.push_back(Simplex{a, b});
  const auto complex = SimplicialComplex::from_simplices(edges, true);
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = precision;
  return build_qtda_circuit(combinatorial_laplacian(complex, 1), options);
}

void BM_ExactChannelQpe(benchmark::State& state) {
  const auto vertices = static_cast<std::size_t>(state.range(0));
  const Circuit circuit = qpe_circuit(vertices, 3);
  const NoiseModel noise{kSingleQubitError, kTwoQubitError};
  const std::vector<std::size_t> measured{0, 1, 2};
  CompilerOptions compiler_options;
  compiler_options.preserve_noise_slots = true;
  const ExecutionPlan plan = compile_circuit(circuit, compiler_options);
  DensityMatrixBackend backend(circuit.num_qubits());
  Rng rng(7);
  for (auto _ : state) {
    backend.prepare_basis_state(0);
    backend.apply_plan_with_noise(plan, noise, rng);
    const auto marginal = backend.marginal_probabilities(measured);
    benchmark::DoNotOptimize(marginal.data());
  }
  state.counters["register_qubits"] =
      static_cast<double>(circuit.num_qubits());
}
BENCHMARK(BM_ExactChannelQpe)->Arg(3)->Arg(4);

void BM_TrajectoryEnsembleQpe(benchmark::State& state) {
  const auto vertices = static_cast<std::size_t>(state.range(0));
  const Circuit circuit = qpe_circuit(vertices, 3);
  const NoiseModel noise{kSingleQubitError, kTwoQubitError};
  const std::vector<std::size_t> measured{0, 1, 2};
  // Compile once, run every trajectory off the plan — the production path
  // of the trajectory estimator.
  CompilerOptions compiler_options = compiler_options_from_env();
  compiler_options.preserve_noise_slots = true;
  const ExecutionPlan plan = compile_circuit(circuit, compiler_options);
  Rng rng(7);
  for (auto _ : state) {
    std::vector<double> mean(std::size_t{1} << measured.size(), 0.0);
    for (std::size_t i = 0; i < kMatchedTrajectories; ++i) {
      const Statevector psi = run_noisy_trajectory(plan, noise, rng);
      const auto marginal = psi.marginal_probabilities(measured);
      for (std::size_t m = 0; m < mean.size(); ++m) mean[m] += marginal[m];
    }
    benchmark::DoNotOptimize(mean.data());
  }
  state.counters["register_qubits"] =
      static_cast<double>(circuit.num_qubits());
  state.counters["trajectories"] = static_cast<double>(kMatchedTrajectories);
}
BENCHMARK(BM_TrajectoryEnsembleQpe)->Arg(3)->Arg(4);

void BM_DepolarizingChannel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DensityMatrix rho(n);
  for (auto _ : state) {
    for (std::size_t q = 0; q < n; ++q) rho.apply_depolarizing(q, 0.01);
    benchmark::DoNotOptimize(rho.trace());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(1ULL << (2 * n)));
}
BENCHMARK(BM_DepolarizingChannel)->Arg(6)->Arg(8)->Arg(10);

}  // namespace
