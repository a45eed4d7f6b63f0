#include "core/betti_estimator.hpp"

#include <cmath>
#include <memory>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/compiler.hpp"
#include "quantum/mixed_state.hpp"
#include "quantum/pauli.hpp"
#include "quantum/qpe.hpp"
#include "topology/laplacian.hpp"

namespace qtda {

namespace {

/// Largest padded dimension 2^q at which the circuit backends still compute
/// the diagnostic exact p(0): it eigensolves the |S_k|×|S_k| block, O(|S_k|³)
/// time and O(|S_k|²) memory, and the estimate itself never needs it.  The
/// analytic backend, whose estimate it is, always computes it.
constexpr std::uint64_t kExactReferenceMaxDim = 4096;

QpeLayout make_layout(const EstimatorOptions& options,
                      std::size_t system_qubits, bool with_purification) {
  QpeLayout layout;
  layout.precision_qubits = options.precision_qubits;
  layout.system_qubits = system_qubits;
  layout.ancilla_qubits = with_purification ? system_qubits : 0;
  return layout;
}

/// Builds the full QPE circuit (state prep + network) for the padded,
/// rescaled H.  For the purification mode the register is t + q + q wide; for
/// sampled-basis it is t + q and the system register is initialized per shot.
/// The backends differ only in their controlled powers U^p = exp(i·p·H):
///  * kCircuitSparse  — matrix-free operator gates applying exp(i·p·H) by
///    Chebyshev expansion; no 2^q×2^q matrix is ever formed, so the budget
///    is the state-vector width itself;
///  * kCircuitTrotter — Trotterized fragments of the Pauli decomposition,
///    read straight off the CSR structure (Fig. 7);
///  * kCircuitExact   — dense unitaries from the eigendecomposition of the
///    densified H (O(4^q) memory per oracle).
Circuit build_estimator_circuit(const SparseScaledHamiltonian& scaled,
                                const EstimatorOptions& options,
                                bool with_purification) {
  const QpeLayout layout =
      make_layout(options, scaled.num_qubits, with_purification);
  const bool dense_oracle = options.backend == EstimatorBackend::kCircuitExact;
  QTDA_REQUIRE(layout.total() <= (dense_oracle ? 26u : 30u),
               "register of " << layout.total() << " qubits exceeds the "
                              << (dense_oracle
                                      ? "dense-oracle budget; use "
                                        "EstimatorBackend::kCircuitSparse"
                                      : "state-vector budget"));

  Circuit circuit(layout.total());
  if (with_purification) {
    append_mixed_state_preparation(circuit, layout.ancilla_wires(),
                                   layout.system_wires());
  }
  switch (options.backend) {
    case EstimatorBackend::kCircuitSparse: {
      // All t controlled powers share one CSR copy of H; each operator owns
      // only its Chebyshev coefficients.
      const auto shared_h = std::make_shared<const SparseMatrix>(scaled.matrix);
      circuit.append_circuit(build_qpe_circuit_sparse(
          layout,
          [&](std::uint64_t power) -> std::shared_ptr<const LinearOperator> {
            return std::make_shared<SparseExpOperator>(
                shared_h, static_cast<double>(power), scaled.spectrum_min(),
                scaled.spectrum_max());
          }));
      break;
    }
    case EstimatorBackend::kCircuitTrotter: {
      const PauliSum hamiltonian = pauli_decompose(scaled.matrix);
      circuit.append_circuit(build_qpe_circuit(
          layout, [&](Circuit& c, std::uint64_t power, std::size_t control) {
            // options.trotter.steps is per unit of simulated time; U^{2^j}
            // simulates 2^j time units, so the step count scales with the
            // power — otherwise the large controlled powers dominate the
            // splitting error.
            TrotterOptions scaled_trotter = options.trotter;
            scaled_trotter.steps =
                options.trotter.steps * static_cast<std::size_t>(power);
            const Circuit fragment = trotter_circuit(
                hamiltonian, static_cast<double>(power), scaled_trotter,
                layout.total(), layout.precision_qubits);
            c.append_circuit(fragment.controlled_on(control));
          }));
      break;
    }
    case EstimatorBackend::kCircuitExact: {
      const HamiltonianExponential exponential(scaled.matrix.to_dense());
      circuit.append_circuit(
          build_qpe_circuit_dense(layout, [&](std::uint64_t power) {
            return exponential.unitary(static_cast<double>(power));
          }));
      break;
    }
    case EstimatorBackend::kAnalytic:
      QTDA_REQUIRE(false,
                   "the analytic backend has no circuit; pick a circuit "
                   "backend");
  }
  return circuit;
}

/// Executes a compiled plan through the configured simulator backend and
/// fills the shot-dependent fields of the estimate.  Shared by the cold
/// (compile-then-run) and served (cached-plan) paths — which is what makes
/// the two bit-identical by construction.
void execute_plan_estimate(BettiEstimate& estimate, const ExecutionPlan& plan,
                           const QpeLayout& layout,
                           const EstimatorOptions& options, bool purify,
                           Rng& rng) {
  // The whole shot-execution stage: state preparation, plan evolution(s)
  // and sampling.  Per-op-kind time inside the evolutions lands in the
  // exec.ns.* counters (see for_each_plan_op_accounted).
  QTDA_SPAN("evolve");
  QTDA_COUNTER_ADD("estimator.estimates", 1);
  QTDA_COUNTER_ADD("estimator.shots", options.shots);
  const std::vector<std::size_t> measured = layout.precision_wires();
  const std::unique_ptr<SimulatorBackend> backend =
      make_simulator(options.simulator, plan.num_qubits(), options.precision);

  // Noisy evolution runs through the backend's own channel semantics
  // (run_noisy_trajectory's error placement and RNG consumption order).
  // Exact-channel backends (density matrix) evolve the whole ensemble in
  // one pass, so every shot can be drawn from that single evolution instead
  // of paying one trajectory per shot.
  const bool exact_channels = backend->exact_channels();

  // Trajectory execution pays one plan walk per shot; exact channels and
  // noiseless runs evolve once regardless of the shot count.
  if (!options.noise.is_noiseless() && !exact_channels)
    QTDA_COUNTER_ADD("estimator.trajectories", options.shots);

  if (purify) {
    if (options.noise.is_noiseless()) {
      backend->prepare_basis_state(0);
      backend->apply_plan(plan);
      QTDA_SPAN("sample");
      estimate.zero_counts = backend->sample(measured, options.shots, rng)[0];
    } else if (exact_channels) {
      backend->prepare_basis_state(0);
      backend->apply_plan_with_noise(plan, options.noise, rng);
      estimate.zero_counts = backend->sample(measured, options.shots, rng)[0];
    } else {
      std::uint64_t zeros = 0;
      for (std::size_t shot = 0; shot < options.shots; ++shot) {
        cancel::checkpoint();  // between trajectories: one shot = one plan walk
        backend->prepare_basis_state(0);
        backend->apply_plan_with_noise(plan, options.noise, rng);
        zeros += backend->sample(measured, 1, rng)[0];
      }
      estimate.zero_counts = zeros;
    }
    return;
  }

  // Sampled-basis mixture: distribute shots uniformly over the 2^q basis
  // states, then run one evolution per occupied state.
  const std::uint64_t dim = std::uint64_t{1} << layout.system_qubits;
  const std::vector<double> uniform(dim, 1.0);
  const auto shots_per_state = multinomial_sample(uniform, options.shots, rng);
  const std::size_t shift =
      plan.num_qubits() - layout.precision_qubits - layout.system_qubits;
  std::uint64_t zeros = 0;
  for (std::uint64_t basis = 0; basis < dim; ++basis) {
    const std::uint64_t s = shots_per_state[basis];
    if (s == 0) continue;
    cancel::checkpoint();  // between per-basis evolutions
    // System register holds |basis⟩: it occupies wires [t, t+q) which are
    // the top bits below the precision block.
    const std::uint64_t initial = basis << shift;
    if (options.noise.is_noiseless()) {
      backend->prepare_basis_state(initial);
      backend->apply_plan(plan);
      zeros += backend->sample(measured, s, rng)[0];
    } else if (exact_channels) {
      backend->prepare_basis_state(initial);
      backend->apply_plan_with_noise(plan, options.noise, rng);
      zeros += backend->sample(measured, s, rng)[0];
    } else {
      for (std::uint64_t shot = 0; shot < s; ++shot) {
        Rng traj_rng = rng.split(shot * dim + basis);
        backend->prepare_basis_state(initial);
        backend->apply_plan_with_noise(plan, options.noise, traj_rng);
        zeros += backend->sample(measured, 1, rng)[0];
      }
    }
  }
  estimate.zero_counts = zeros;
}

/// Finalizes p̂(0) → β̃ from the accumulated zero counts.
void finalize_estimate(BettiEstimate& estimate,
                       const EstimatorOptions& options, std::uint64_t dim) {
  estimate.zero_probability = static_cast<double>(estimate.zero_counts) /
                              static_cast<double>(options.shots);
  estimate.estimated_betti =
      static_cast<double>(dim) * estimate.zero_probability;
  estimate.rounded_betti = static_cast<std::size_t>(
      std::llround(std::max(estimate.estimated_betti, 0.0)));
}

void validate_options(const EstimatorOptions& options) {
  QTDA_REQUIRE(options.shots > 0, "estimator needs at least one shot");
  QTDA_REQUIRE(options.precision_qubits >= 1,
               "estimator needs at least one precision qubit");
}

}  // namespace

std::string estimator_backend_name(EstimatorBackend backend) {
  switch (backend) {
    case EstimatorBackend::kAnalytic: return "analytic";
    case EstimatorBackend::kCircuitExact: return "exact";
    case EstimatorBackend::kCircuitSparse: return "sparse";
    case EstimatorBackend::kCircuitTrotter: return "trotter";
  }
  return "?";
}

CompilerOptions estimator_compiler_options(const NoiseModel& noise) {
  CompilerOptions options = compiler_options_from_env();
  options.preserve_noise_slots = !noise.is_noiseless();
  return options;
}

Circuit build_qtda_circuit(const RealMatrix& laplacian,
                           const EstimatorOptions& options) {
  return build_qtda_circuit(SparseMatrix::from_dense(laplacian), options);
}

Circuit build_qtda_circuit(const SparseMatrix& laplacian,
                           const EstimatorOptions& options) {
  const double delta = options.delta > 0.0 ? options.delta : default_delta();
  return build_estimator_circuit(
      rescale_laplacian_sparse(pad_laplacian_sparse(laplacian, options.padding),
                               delta),
      options, options.mixed_state == MixedStateMode::kPurification);
}

BettiEstimate estimate_betti_from_laplacian(const RealMatrix& laplacian,
                                            const EstimatorOptions& options) {
  return estimate_betti_from_sparse_laplacian(
      SparseMatrix::from_dense(laplacian), options);
}

CompiledEstimate compile_betti_estimate(const SparseMatrix& laplacian,
                                        const EstimatorOptions& options) {
  // Covers padding/rescaling, the exact p(0), circuit synthesis and plan
  // compilation (compile_circuit nests its own "compile" span).
  QTDA_SPAN("compile_estimate");
  validate_options(options);

  // q, λ̃max and the scale come from |S_k| and the Gershgorin bound; only
  // the circuit backends below form the padded 2^q×2^q operator.
  const PaddingShape shape = padding_shape(laplacian);
  CompiledEstimate compiled;
  compiled.backend = options.backend;
  compiled.system_qubits = shape.num_qubits;
  compiled.lambda_max = shape.lambda_max;
  compiled.delta = options.delta > 0.0 ? options.delta : default_delta();
  compiled.purify = options.mixed_state == MixedStateMode::kPurification;
  compiled.layout = make_layout(options, shape.num_qubits, compiled.purify);
  compiled.total_qubits = compiled.layout.total();

  // p(0) of the exact H from the |S_k|×|S_k| block: the analytic backend's
  // estimate, and the circuit backends' diagnostic reference (the Trotter
  // backend deviates from it by its splitting error).
  const bool analytic = options.backend == EstimatorBackend::kAnalytic;
  if (analytic ||
      (std::uint64_t{1} << shape.num_qubits) <= kExactReferenceMaxDim) {
    compiled.exact_zero_probability = analytic_zero_probability(
        scaled_padded_spectrum(
            laplacian.to_dense(), shape.num_qubits, shape.lambda_max,
            rescale_factor(shape.lambda_max, compiled.delta), options.padding),
        options.precision_qubits);
  }
  if (analytic) return compiled;  // no circuit: a Binomial draw from p(0)

  const Circuit circuit = build_qtda_circuit(laplacian, options);
  compiled.circuit_gates = circuit.gate_count();
  compiled.circuit_depth = circuit.depth();
  compiled.plan = std::make_shared<const ExecutionPlan>(
      compile_circuit(circuit, estimator_compiler_options(options.noise)));
  return compiled;
}

BettiEstimate estimate_betti_with_plan(const CompiledEstimate& compiled,
                                       const EstimatorOptions& options) {
  validate_options(options);
  QTDA_REQUIRE(options.backend == compiled.backend,
               "estimate options switched backend after compilation");
  QTDA_REQUIRE(options.precision_qubits == compiled.layout.precision_qubits,
               "estimate options changed the precision register after "
               "compilation");
  QTDA_REQUIRE((options.mixed_state == MixedStateMode::kPurification) ==
                   compiled.purify,
               "estimate options changed the mixed-state mode after "
               "compilation");

  BettiEstimate estimate;
  estimate.shots = options.shots;
  estimate.system_qubits = compiled.system_qubits;
  estimate.precision_qubits = options.precision_qubits;
  estimate.lambda_max = compiled.lambda_max;
  estimate.delta = compiled.delta;
  estimate.exact_zero_probability = compiled.exact_zero_probability;
  estimate.total_qubits = compiled.total_qubits;
  estimate.circuit_gates = compiled.circuit_gates;
  estimate.circuit_depth = compiled.circuit_depth;

  Rng rng(options.seed);
  if (compiled.backend == EstimatorBackend::kAnalytic) {
    estimate.zero_counts = sample_zero_counts(
        compiled.exact_zero_probability, options.shots, rng);
  } else {
    QTDA_REQUIRE(compiled.plan != nullptr, "CompiledEstimate carries no plan");
    QTDA_REQUIRE(options.noise.is_noiseless() ||
                     compiled.plan->preserves_noise_slots(),
                 "noisy execution needs a plan compiled with noise slots "
                 "preserved");
    execute_plan_estimate(estimate, *compiled.plan, compiled.layout, options,
                          compiled.purify, rng);
  }
  finalize_estimate(estimate, options,
                    std::uint64_t{1} << compiled.system_qubits);
  return estimate;
}

std::vector<BettiEstimate> estimate_betti_batch(
    const CompiledEstimate& compiled,
    const std::vector<EstimatorOptions>& requests) {
  QTDA_REQUIRE(!requests.empty(), "estimate_betti_batch needs requests");
  QTDA_REQUIRE(compiled.plan != nullptr, "CompiledEstimate carries no plan");
  QTDA_REQUIRE(compiled.purify,
               "batched execution needs purification circuits (the "
               "sampled-basis mixture draws its basis states per request)");
  const EstimatorOptions& first = requests.front();
  for (const EstimatorOptions& options : requests) {
    validate_options(options);
    QTDA_REQUIRE(options.noise.is_noiseless(),
                 "batched execution shares one evolution; noise makes the "
                 "evolution request-dependent");
    QTDA_REQUIRE(options.backend == compiled.backend &&
                     options.precision_qubits ==
                         compiled.layout.precision_qubits &&
                     options.mixed_state == MixedStateMode::kPurification,
                 "batched request is not plan-compatible");
    QTDA_REQUIRE(options.simulator == first.simulator &&
                     options.precision == first.precision,
                 "batched requests must share the simulation engine");
  }

  // One deterministic evolution...
  const std::unique_ptr<SimulatorBackend> backend =
      make_simulator(first.simulator, compiled.plan->num_qubits(),
                     first.precision);
  {
    QTDA_SPAN("evolve");
    backend->prepare_basis_state(0);
    backend->apply_plan(*compiled.plan);
  }
  QTDA_COUNTER_ADD("estimator.estimates", requests.size());

  // ...then per-request sampling, each from its own seed exactly as the
  // serial path would (sampling reads the final probabilities and never
  // perturbs the register, so request order cannot leak between requests).
  const std::vector<std::size_t> measured = compiled.layout.precision_wires();
  QTDA_SPAN("sample");
  std::vector<BettiEstimate> estimates;
  estimates.reserve(requests.size());
  for (const EstimatorOptions& options : requests) {
    QTDA_COUNTER_ADD("estimator.shots", options.shots);
    BettiEstimate estimate;
    estimate.shots = options.shots;
    estimate.system_qubits = compiled.system_qubits;
    estimate.precision_qubits = options.precision_qubits;
    estimate.lambda_max = compiled.lambda_max;
    estimate.delta = compiled.delta;
    estimate.exact_zero_probability = compiled.exact_zero_probability;
    estimate.total_qubits = compiled.total_qubits;
    estimate.circuit_gates = compiled.circuit_gates;
    estimate.circuit_depth = compiled.circuit_depth;
    Rng rng(options.seed);
    estimate.zero_counts = backend->sample(measured, options.shots, rng)[0];
    finalize_estimate(estimate, options,
                      std::uint64_t{1} << compiled.system_qubits);
    estimates.push_back(estimate);
  }
  return estimates;
}

BettiEstimate estimate_betti_from_sparse_laplacian(
    const SparseMatrix& laplacian, const EstimatorOptions& options) {
  // Compile + execute: the same two halves the serving layer's plan cache
  // splits across requests, so served estimates are bit-identical to this
  // cold path by construction.
  return estimate_betti_with_plan(compile_betti_estimate(laplacian, options),
                                  options);
}

BettiEstimate estimate_betti(const SimplicialComplex& complex, int k,
                             const EstimatorOptions& options) {
  if (complex.count(k) == 0) {
    BettiEstimate empty;
    empty.shots = options.shots;
    empty.precision_qubits = options.precision_qubits;
    return empty;
  }
  return estimate_betti_from_sparse_laplacian(
      sparse_combinatorial_laplacian(complex, k), options);
}

}  // namespace qtda
