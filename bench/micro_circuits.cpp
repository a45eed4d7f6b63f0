/// \file micro_circuits.cpp
/// \brief google-benchmark microbenches for circuit synthesis and the QPE
/// network builders (paper Figs. 6–7 machinery).
#include <benchmark/benchmark.h>

#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/pauli.hpp"
#include "quantum/qft.hpp"
#include "quantum/qpe.hpp"
#include "quantum/trotter.hpp"
#include "topology/laplacian.hpp"
#include "topology/simplicial_complex.hpp"

namespace {

using namespace qtda;

/// The worked-example Hamiltonian (Eq. 18 with δ = λmax): 24 Pauli terms.
PauliSum worked_example_hamiltonian() {
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}}, true);
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(sparse_combinatorial_laplacian(complex, 1)), 6.0);
  return pauli_decompose(scaled.matrix);
}

void BM_TrotterSynthesis(benchmark::State& state) {
  const auto steps = static_cast<std::size_t>(state.range(0));
  const auto h = worked_example_hamiltonian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trotter_circuit(h, 1.0, {steps, 2}, 3).gate_count());
  }
  const Circuit sample = trotter_circuit(h, 1.0, {steps, 2}, 3);
  state.counters["gates"] = static_cast<double>(sample.gate_count());
  state.counters["depth"] = static_cast<double>(sample.depth());
}
BENCHMARK(BM_TrotterSynthesis)->RangeMultiplier(2)->Range(1, 32);

void BM_QftSynthesis(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> wires(t);
  for (std::size_t i = 0; i < t; ++i) wires[i] = i;
  for (auto _ : state) {
    Circuit c(t);
    append_inverse_qft(c, wires);
    benchmark::DoNotOptimize(c.gate_count());
  }
}
BENCHMARK(BM_QftSynthesis)->DenseRange(2, 12, 2);

void BM_QpeNetworkDense(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}}, true);
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(sparse_combinatorial_laplacian(complex, 1)), 6.0);
  const HamiltonianExponential exponential(scaled.matrix.to_dense());
  QpeLayout layout{t, scaled.num_qubits, 0};
  for (auto _ : state) {
    const Circuit qpe = build_qpe_circuit_dense(
        layout, [&](std::uint64_t power) {
          return exponential.unitary(static_cast<double>(power));
        });
    benchmark::DoNotOptimize(qpe.gate_count());
  }
}
BENCHMARK(BM_QpeNetworkDense)->DenseRange(1, 8, 1);

void BM_ControlledFragment(benchmark::State& state) {
  const auto h = worked_example_hamiltonian();
  const Circuit fragment = trotter_circuit(h, 1.0, {2, 2}, 4, /*offset=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fragment.controlled_on(0).gate_count());
  }
}
BENCHMARK(BM_ControlledFragment);

}  // namespace
