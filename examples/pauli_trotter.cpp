/// \file pauli_trotter.cpp
/// \brief The circuit-construction machinery of the paper's Figs. 6–7:
/// Pauli decomposition of the Hamiltonian, Trotterized e^{iH} synthesis,
/// the compiled plan's size (inverse pairs cancelled, gates fused), and a
/// gate-census comparison against the dense-oracle QPE network.
///
/// Build & run:  ./build/examples/pauli_trotter
#include <cmath>
#include <cstdio>

#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/matrix_ops.hpp"
#include "quantum/compiler.hpp"
#include "quantum/executor.hpp"
#include "quantum/pauli.hpp"
#include "quantum/qpe.hpp"
#include "quantum/trotter.hpp"
#include "topology/laplacian.hpp"
#include "topology/simplicial_complex.hpp"

int main() {
  using namespace qtda;
  std::printf("Circuit construction for e^(iH): decomposition, Trotter, "
              "compilation\n");
  std::printf("====================================================================\n\n");

  // The worked-example Hamiltonian (Eq. 18 with delta = lambda_max).
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}}, true);
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(sparse_combinatorial_laplacian(complex, 1)), 6.0);
  const RealMatrix h = scaled.matrix.to_dense();

  const auto hamiltonian = pauli_decompose(scaled.matrix).sorted();
  std::printf("Pauli decomposition: %zu terms (Eq. 19)\n",
              hamiltonian.size());
  std::size_t weight_total = 0;
  for (const auto& term : hamiltonian.terms())
    weight_total += term.string.weight();
  std::printf("mean Pauli weight: %.2f\n\n",
              static_cast<double>(weight_total) /
                  static_cast<double>(hamiltonian.size()));

  // Trotter circuits at several step counts; fidelity against the exact
  // unitary, gate statistics, and the size of the fused plan the estimator
  // would execute (ops after inverse-pair cancellation and fusion).
  const auto exact = unitary_exp(h);
  std::printf("%-7s %-7s %-14s %-9s %-8s %-9s %-10s\n", "steps", "order",
              "max |U-U~|", "gates", "depth", "ops", "cancelled");
  for (const int order : {1, 2}) {
    for (const std::size_t steps : {1u, 4u, 16u}) {
      const Circuit circuit =
          trotter_circuit(hamiltonian, 1.0, {steps, order}, 3);
      CompilerOptions unfused;
      unfused.fuse = false;
      const ExecutionPlan plan = compile_circuit(circuit, unfused);
      // Probe the synthesized unitary column by column.
      double worst = 0.0;
      for (std::uint64_t col = 0; col < 8; ++col) {
        Statevector s(3);
        s.set_basis_state(col);
        s.apply_plan(plan);
        for (std::uint64_t row = 0; row < 8; ++row)
          worst = std::max(worst, std::abs(s.amplitude(row) - exact(row, col)));
      }
      const CompilerStats fused =
          compile_circuit(circuit, CompilerOptions{}).stats();
      std::printf("%-7zu %-7d %-14.6f %-9zu %-8zu %-9zu %-10zu\n", steps,
                  order, worst, circuit.gate_count(), circuit.depth(),
                  fused.gates_after, fused.cancelled_pairs);
    }
  }

  // Full QPE network sizes: dense oracle vs Trotterized oracle (Fig. 6).
  std::printf("\nQPE network (3 precision qubits, Fig. 6):\n");
  QpeLayout layout{3, 3, 0};
  const HamiltonianExponential exponential(h);
  const Circuit dense_qpe = build_qpe_circuit_dense(
      layout, [&](std::uint64_t power) {
        return exponential.unitary(static_cast<double>(power));
      });
  const Circuit trotter_qpe = build_qpe_circuit(
      layout, [&](Circuit& c, std::uint64_t power, std::size_t control) {
        const Circuit fragment = trotter_circuit(
            hamiltonian, static_cast<double>(power), {4, 2}, layout.total(),
            layout.precision_qubits);
        c.append_circuit(fragment.controlled_on(control));
      });
  std::printf("  dense oracle:   %4zu gates, depth %4zu\n",
              dense_qpe.gate_count(), dense_qpe.depth());
  std::printf("  trotter oracle: %4zu gates, depth %4zu\n",
              trotter_qpe.gate_count(), trotter_qpe.depth());
  std::printf("\nGate census of the Trotterized network:\n");
  for (const auto& [name, count] : trotter_qpe.gate_census())
    std::printf("  %-8s x %zu\n", name.c_str(), count);
  return 0;
}
