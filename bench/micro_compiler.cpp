/// \file micro_compiler.cpp
/// \brief google-benchmark microbenches for the circuit compiler.
///
/// The headline pair is BM_QpeNetworkSweep against BM_QpeNetworkSweepFused:
/// the gate-dominated part of the paper's QPE network — H wall,
/// controlled-phase oracle rungs, inverse QFT — executed gate by gate (an
/// unfused plan) versus through a plan with width-4 gate fusion.  Every
/// fused block collapses several full passes over the 2^n amplitudes into
/// one.  BM_CompileTrotterCircuit times compilation itself on the
/// worked-example Strang circuits, whose basis walls and CNOT ladders hold
/// the inverse pairs the compiler cancels.  BM_SparseQpeEstimate runs the
/// whole sparse-oracle estimator end to end (compile-once ladder included),
/// and BM_TrajectoryEnsemble times a noisy trajectory ensemble over one
/// noise-slot plan.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"
#include "quantum/pauli.hpp"
#include "quantum/qft.hpp"
#include "quantum/qpe.hpp"
#include "quantum/trotter.hpp"
#include "topology/laplacian.hpp"
#include "topology/simplicial_complex.hpp"

namespace {

using namespace qtda;

/// The gate-only QPE network shell: H wall on t precision wires, a
/// controlled-phase ladder standing in for the diagonalized oracle powers
/// (one rung per precision × system wire pair), and the inverse QFT.  All
/// named/controlled gates — the workload fusion targets.
Circuit qpe_network(std::size_t precision, std::size_t system) {
  QpeLayout layout;
  layout.precision_qubits = precision;
  layout.system_qubits = system;
  return build_qpe_circuit(
      layout, [&](Circuit& c, std::uint64_t power, std::size_t control) {
        for (std::size_t s = 0; s < system; ++s) {
          c.controlled_phase(control, precision + s,
                             0.37 * static_cast<double>(power) /
                                 static_cast<double>(s + 1));
        }
      });
}

void BM_QpeNetworkSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Circuit circuit = qpe_network(n / 2, n - n / 2);
  CompilerOptions options;
  options.fuse = false;
  const ExecutionPlan plan = compile_circuit(circuit, options);
  Statevector psi(n);
  for (auto _ : state) {
    psi.set_basis_state(0);
    psi.apply_plan(plan);
    benchmark::DoNotOptimize(psi.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(circuit.gate_count());
}
BENCHMARK(BM_QpeNetworkSweep)->Arg(12)->Arg(14)->Arg(16);

void BM_QpeNetworkSweepFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Circuit circuit = qpe_network(n / 2, n - n / 2);
  CompilerOptions options;  // default width-4 fusion
  const ExecutionPlan plan = compile_circuit(circuit, options);
  Statevector psi(n);
  for (auto _ : state) {
    psi.set_basis_state(0);
    psi.apply_plan(plan);
    benchmark::DoNotOptimize(psi.amplitudes().data());
  }
  state.counters["gates"] = static_cast<double>(circuit.gate_count());
  state.counters["fused_ops"] = static_cast<double>(plan.ops().size());
}
BENCHMARK(BM_QpeNetworkSweepFused)->Arg(12)->Arg(14)->Arg(16);

/// Compiles the worked-example Strang circuit e^{iH} (Eq. 18 with
/// δ = λmax, 24 Pauli terms) at Arg steps: inverse-pair cancellation plus
/// fusion, the work every Trotter estimate does once per plan.
void BM_CompileTrotterCircuit(benchmark::State& state) {
  const auto steps = static_cast<std::size_t>(state.range(0));
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}}, true);
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(sparse_combinatorial_laplacian(complex, 1)), 6.0);
  const Circuit circuit =
      trotter_circuit(pauli_decompose(scaled.matrix), 1.0, {steps, 2}, 3);
  CompilerStats stats;
  for (auto _ : state) {
    const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
    stats = plan.stats();
    benchmark::DoNotOptimize(plan.ops().data());
  }
  state.counters["gates"] = static_cast<double>(stats.gates_before);
  state.counters["ops"] = static_cast<double>(stats.gates_after);
  state.counters["cancelled_pairs"] =
      static_cast<double>(stats.cancelled_pairs);
}
BENCHMARK(BM_CompileTrotterCircuit)->Arg(1)->Arg(4)->Arg(16);

/// Full sparse-oracle Betti estimate (pipeline default): circuit built,
/// compiled once, executed with the fused plan and the shared-coefficient
/// QPE ladder.
void BM_SparseQpeEstimate(benchmark::State& state) {
  const auto vertices = static_cast<std::size_t>(state.range(0));
  std::vector<Simplex> edges;
  for (VertexId a = 0; a < vertices; ++a)
    for (VertexId b = a + 1; b < vertices; ++b)
      edges.push_back(Simplex{a, b});
  const auto complex = SimplicialComplex::from_simplices(edges, true);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 4;
  options.shots = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_betti_from_sparse_laplacian(laplacian, options)
            .estimated_betti);
  }
}
BENCHMARK(BM_SparseQpeEstimate)->Arg(5)->Arg(6);

/// Noisy trajectory ensemble over one noise-slot plan: the sparse-oracle QPE
/// network the estimator runs under noise, 100 trajectories per iteration
/// sharing the plan's precompiled ops and scratch arena.
void BM_TrajectoryEnsemble(benchmark::State& state) {
  constexpr std::size_t kTrajectories = 100;
  std::vector<Simplex> traj_edges;
  for (VertexId a = 0; a < 4; ++a)
    for (VertexId b = a + 1; b < 4; ++b) traj_edges.push_back(Simplex{a, b});
  const auto traj_complex =
      SimplicialComplex::from_simplices(traj_edges, true);
  EstimatorOptions traj_options;
  traj_options.backend = EstimatorBackend::kCircuitSparse;
  traj_options.precision_qubits = 3;
  const Circuit circuit = build_qtda_circuit(
      sparse_combinatorial_laplacian(traj_complex, 1), traj_options);
  const NoiseModel noise{0.01, 0.02};
  CompilerOptions options;
  options.preserve_noise_slots = true;
  const ExecutionPlan plan = compile_circuit(circuit, options);
  const std::vector<std::size_t> measured{0, 1, 2};
  Rng rng(7);
  for (auto _ : state) {
    std::vector<double> mean(8, 0.0);
    for (std::size_t i = 0; i < kTrajectories; ++i) {
      const Statevector psi = run_noisy_trajectory(plan, noise, rng);
      const auto marginal = psi.marginal_probabilities(measured);
      for (std::size_t m = 0; m < mean.size(); ++m) mean[m] += marginal[m];
    }
    benchmark::DoNotOptimize(mean.data());
  }
  state.counters["trajectories"] = static_cast<double>(kTrajectories);
}
BENCHMARK(BM_TrajectoryEnsemble);

}  // namespace
