/// \file engine_betti.cpp
/// \brief CLI driver for the pluggable engines: a random flag complex →
/// sparse Δ_k → matrix-free QPE on the simulator selected by name, with the
/// noise model plumbed from the command line through EstimatorOptions.
///
/// Build & run:
///   ./build/examples/example_engine_betti --vertices 8 --stats
///   ./build/examples/example_engine_betti --simulator density-matrix
///       --noise 0.02 --verify     # exact channels vs trajectory ensemble
///
/// Flags: --simulator <name>  engine (default statevector)
///        --vertices <n>      random flag-complex size (default 8)
///        --dimension <k>     homology dimension (default 1)
///        --precision <t>     QPE precision qubits (default 4)
///        --shots <n>         measurement shots (default 20000)
///        --noise <p>         depolarizing strength per touched qubit
///        --trajectories <n>  ensemble size for the density verify (200)
///        --seed <n>          RNG seed (default 29)
///        --stats             print the circuit compiler's report (gates
///                            before, ops after, inverse pairs cancelled,
///                            fused-block histogram) and a telemetry
///                            snapshot (spans, counters, per-op-kind time)
///                            for the very circuit the estimate executed
///        --verify            density-matrix only: check a
///                            run_noisy_trajectory ensemble converges to the
///                            exact-channel marginal of the same circuit
#include <cmath>
#include <cstdio>
#include <exception>

#include "common/cli.hpp"
#include "common/cpu_features.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "core/betti_estimator.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace {

/// Density-matrix verify: the trajectory sampler is an unbiased estimator of
/// the exact channel, so the ensemble mean of per-trajectory precision
/// marginals must approach the exact ρ marginal — per outcome, within a few
/// standard errors of the ensemble itself.
bool verify_trajectory_convergence(const qtda::Circuit& circuit,
                                   const qtda::EstimatorOptions& options,
                                   std::size_t trajectories) {
  using namespace qtda;
  std::vector<std::size_t> precision_wires(options.precision_qubits);
  for (std::size_t t = 0; t < precision_wires.size(); ++t)
    precision_wires[t] = t;

  // One noise-slot plan serves the exact evolution and every trajectory.
  CompilerOptions compiler_options;
  compiler_options.preserve_noise_slots = true;
  const ExecutionPlan plan = compile_circuit(circuit, compiler_options);

  // Built directly (not through make_simulator): this check is *about* the
  // exact-channel engine, so a QTDA_SIMULATOR override must not redirect it.
  DensityMatrixBackend backend(circuit.num_qubits());
  Rng channel_rng(options.seed);  // untouched: channels are exact
  backend.prepare_basis_state(0);
  backend.apply_plan_with_noise(plan, options.noise, channel_rng);
  const std::vector<double> exact =
      backend.marginal_probabilities(precision_wires);

  Rng rng(options.seed + 1);
  std::vector<double> sum(exact.size(), 0.0), sum_sq(exact.size(), 0.0);
  for (std::size_t i = 0; i < trajectories; ++i) {
    const Statevector psi = run_noisy_trajectory(plan, options.noise, rng);
    const auto marginal = psi.marginal_probabilities(precision_wires);
    for (std::size_t m = 0; m < marginal.size(); ++m) {
      sum[m] += marginal[m];
      sum_sq[m] += marginal[m] * marginal[m];
    }
  }

  bool converged = true;
  const auto n = static_cast<double>(trajectories);
  for (std::size_t m = 0; m < exact.size(); ++m) {
    const double mean = sum[m] / n;
    const double variance = std::max(sum_sq[m] / n - mean * mean, 0.0);
    const double tolerance = 5.0 * std::sqrt(variance / n) + 1e-3;
    const bool ok = std::abs(mean - exact[m]) <= tolerance;
    if (!ok || m == 0) {
      std::printf("  outcome %zu: exact %.5f, ensemble %.5f (+-%.5f) -> %s\n",
                  m, exact[m], mean, tolerance, ok ? "ok" : "DIVERGED");
    }
    converged = converged && ok;
  }
  return converged;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qtda;
  const CliArgs args(argc, argv);
  try {
    // Fail fast on a typo'd QTDA_LOG_LEVEL / QTDA_TELEMETRY before any work.
    apply_log_level_from_env();
    telemetry::enabled();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  // --stats reports live telemetry (spans, per-op-kind execution time), so
  // collection must be on before the estimate below runs.
  if (args.get_bool("stats")) telemetry::set_enabled(true);
  const auto vertices = static_cast<std::size_t>(args.get_int("vertices", 8));
  const int k = static_cast<int>(args.get_int("dimension", 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 29));
  const std::string simulator_name =
      args.get_string("simulator", "statevector");

  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits =
      static_cast<std::size_t>(args.get_int("precision", 4));
  options.shots = static_cast<std::size_t>(args.get_int("shots", 20000));
  options.seed = seed;
  // The parser rejects unknown names with the list of valid ones — no
  // ad-hoc string matching in driver code.
  try {
    options.simulator = simulator_kind_from_name(simulator_name);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }
  if (args.get_bool("verify") &&
      options.simulator != SimulatorKind::kDensityMatrix) {
    std::fprintf(stderr, "--verify needs --simulator density-matrix\n");
    return 2;
  }
  const double noise = args.get_double("noise", 0.0);
  options.noise = NoiseModel{noise, noise};

  Rng rng(seed);
  RandomComplexOptions complex_options;
  complex_options.num_vertices = vertices;
  complex_options.max_dimension = k + 1;
  SimplicialComplex complex = random_flag_complex(complex_options, rng);
  while (complex.count(k) == 0)
    complex = random_flag_complex(complex_options, rng);

  std::printf("Betti estimation (valid simulators: %s)\n",
              simulator_kind_names().c_str());
  std::printf("complex: %zu vertices, %zu k-simplices (k = %d)\n", vertices,
              complex.count(k), k);

  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, k);
  const BettiEstimate estimate =
      estimate_betti_from_sparse_laplacian(laplacian, options);
  std::printf("engine %s: beta~_%d = %.4f -> %zu "
              "(classical %zu; %zu qubits, %zu gates)\n",
              simulator_name.c_str(), k, estimate.estimated_betti,
              estimate.rounded_betti, betti_number(complex, k),
              estimate.total_qubits, estimate.circuit_gates);

  if (args.get_bool("stats")) {
    // The same circuit the estimate just executed, compiled under the very
    // policy the estimator used (noisy estimates run noise-slot plans, so
    // the report reflects that).
    const Circuit circuit = build_qtda_circuit(laplacian, options);
    const ExecutionPlan plan =
        compile_circuit(circuit, estimator_compiler_options(options.noise));
    std::printf("compiler: %s", plan.stats().to_string().c_str());
    // Kernel dispatch of the run above: the probed CPU level, the level the
    // engines actually used (QTDA_SIMD caps it), and the amplitude scalar
    // (QTDA_PRECISION overrides the options default).
    const Precision precision =
        precision_from_env().value_or(options.precision);
    std::printf("kernels: simd %s (detected %s), precision %s\n",
                simd_level_name(active_simd_level()).c_str(),
                simd_level_name(detected_simd_level()).c_str(),
                precision_name(precision).c_str());
    // Telemetry collected by the run above: pipeline spans (rips is absent
    // here — the complex is random, not a Rips build), estimator counters,
    // and the executor's per-op-kind time split.
    std::printf("%s",
                telemetry::render_text(telemetry::registry().snapshot())
                    .c_str());
  }

  if (args.get_bool("verify")) {
    // Trajectory ensembles must converge to the exact-channel marginal of
    // the very circuit the estimate just ran.
    const auto trajectories =
        static_cast<std::size_t>(args.get_int("trajectories", 200));
    std::printf("trajectory-ensemble convergence check (%zu trajectories, "
                "noise %.3f):\n",
                trajectories, noise);
    // The sparse overload rebuilds the literally identical matrix-free
    // circuit the estimate above executed — no densification round-trip.
    const Circuit circuit = build_qtda_circuit(laplacian, options);
    if (!verify_trajectory_convergence(circuit, options, trajectories))
      return 1;
  }
  return 0;
}
