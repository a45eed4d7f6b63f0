/// \file ablation_trotter.cpp
/// \brief Ablation of the e^{iH} oracle: exact controlled powers versus
/// Trotterized circuits (paper Fig. 7 route), sweeping steps and order.
///
/// Columns: Trotter error of the estimated p(0) against the exact value,
/// plus the fragment's gate count and depth, the ops of its fused plan and
/// the inverse pairs the compiler cancelled on the way (paper future work:
/// depth reduction).
#include <cmath>
#include <cstdio>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/betti_estimator.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "experiment_common.hpp"
#include "quantum/compiler.hpp"
#include "quantum/pauli.hpp"
#include "quantum/trotter.hpp"
#include "topology/laplacian.hpp"
#include "topology/simplicial_complex.hpp"

namespace {

using namespace qtda;

SimplicialComplex worked_example_complex() {
  return SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}},
      /*close_downward=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto shots = static_cast<std::size_t>(args.get_int("shots", 20000));
  const auto t = static_cast<std::size_t>(args.get_int("precision", 3));

  std::printf("Trotter ablation on the worked-example Laplacian "
              "(t = %zu, shots = %zu, delta = lambda_max)\n\n",
              t, shots);

  const auto complex = worked_example_complex();
  const auto laplacian = combinatorial_laplacian(complex, 1);
  const auto scaled = rescale_laplacian_sparse(
      pad_laplacian_sparse(SparseMatrix::from_dense(laplacian)), 6.0);
  const auto hamiltonian = pauli_decompose(scaled.matrix);
  std::printf("Pauli decomposition: %zu terms over %zu qubits (Eq. 19 has "
              "24)\n\n",
              hamiltonian.size(), hamiltonian.num_qubits());

  // Reference exact probability.
  EstimatorOptions exact_options;
  exact_options.backend = EstimatorBackend::kAnalytic;
  exact_options.precision_qubits = t;
  exact_options.shots = 1;
  exact_options.delta = 6.0;
  const auto exact =
      estimate_betti_from_laplacian(laplacian, exact_options);
  std::printf("Exact p(0) = %.5f  (beta/2^q = %.5f)\n\n",
              exact.exact_zero_probability, 1.0 / 8.0);

  std::printf("%-8s %-7s %-12s %-12s %-12s %-12s %-12s %-9s\n", "steps",
              "order", "|p0 - exact|", "gates", "depth", "ops",
              "cancelled", "time(s)");
  bench::print_rule(92);
  for (const int order : {1, 2}) {
    for (const std::size_t steps : {1u, 2u, 4u, 8u, 16u, 32u}) {
      Timer timer;
      EstimatorOptions options;
      options.backend = EstimatorBackend::kCircuitTrotter;
      options.precision_qubits = t;
      options.shots = shots;
      options.delta = 6.0;
      options.trotter = {steps, order};
      const auto estimate =
          estimate_betti_from_laplacian(laplacian, options);
      const double elapsed = timer.seconds();

      // Circuit-size accounting on the single-power fragment (e^{iH·1}).
      const Circuit fragment =
          trotter_circuit(hamiltonian, 1.0, options.trotter, 3);
      const CompilerStats fused =
          compile_circuit(fragment, CompilerOptions{}).stats();
      std::printf("%-8zu %-7d %-12.5f %-12zu %-12zu %-12zu %-12zu %-9.2f\n",
                  steps, order,
                  std::abs(estimate.zero_probability -
                           exact.exact_zero_probability),
                  fragment.gate_count(), fragment.depth(), fused.gates_after,
                  fused.cancelled_pairs, elapsed);
    }
  }
  std::printf("\nNote: |p0 − exact| mixes Trotter bias with shot noise "
              "(sigma ≈ %.4f at these shots).\n",
              std::sqrt(0.15 * 0.85 / static_cast<double>(shots)));
  return 0;
}
