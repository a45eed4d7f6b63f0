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

QpeLayout make_layout(const EstimatorOptions& options,
                      std::size_t system_qubits, bool with_purification) {
  QpeLayout layout;
  layout.precision_qubits = options.precision_qubits;
  layout.system_qubits = system_qubits;
  layout.ancilla_qubits = with_purification ? system_qubits : 0;
  return layout;
}

/// QPE network with Trotterized controlled powers, shared by the dense and
/// CSR decomposition routes (they differ only in how the PauliSum was
/// obtained).
Circuit build_trotter_qpe(const PauliSum& hamiltonian,
                          const EstimatorOptions& options,
                          const QpeLayout& layout) {
  const std::size_t offset = layout.precision_qubits;
  return build_qpe_circuit(
      layout, [&](Circuit& c, std::uint64_t power, std::size_t control) {
        // options.trotter.steps is per unit of simulated time; U^{2^j}
        // simulates 2^j time units, so the step count scales with the
        // power — otherwise the large controlled powers dominate the
        // splitting error.
        TrotterOptions scaled_trotter = options.trotter;
        scaled_trotter.steps =
            options.trotter.steps * static_cast<std::size_t>(power);
        const Circuit fragment =
            trotter_circuit(hamiltonian, static_cast<double>(power),
                            scaled_trotter, layout.total(), offset);
        c.append_circuit(fragment.controlled_on(control));
      });
}

/// Builds the full QPE circuit (state prep + network) for the given scaled
/// Hamiltonian with a dense oracle (kCircuitExact) or Trotterized fragments
/// (kCircuitTrotter).  For the purification mode the register is t + q + q
/// wide; for sampled-basis it is t + q and the system register is
/// initialized by the caller per shot.
Circuit build_estimator_circuit(const ScaledHamiltonian& scaled,
                                const EstimatorOptions& options,
                                bool with_purification) {
  const QpeLayout layout =
      make_layout(options, scaled.num_qubits, with_purification);
  QTDA_REQUIRE(layout.total() <= 26,
               "register of " << layout.total()
                              << " qubits exceeds the dense-oracle budget; "
                                 "use EstimatorBackend::kCircuitSparse");

  Circuit circuit(layout.total());
  if (with_purification) {
    append_mixed_state_preparation(circuit, layout.ancilla_wires(),
                                   layout.system_wires());
  }

  Circuit qpe = [&] {
    if (options.backend == EstimatorBackend::kCircuitTrotter) {
      return build_trotter_qpe(pauli_decompose(scaled.matrix), options,
                               layout);
    }
    // kCircuitExact: dense controlled powers from the eigendecomposition.
    const HamiltonianExponential exponential(scaled.matrix);
    return build_qpe_circuit_dense(layout, [&](std::uint64_t power) {
      return exponential.unitary(static_cast<double>(power));
    });
  }();
  circuit.append_circuit(qpe);
  return circuit;
}

/// Trotter-on-CSR: the Pauli decomposition is read straight off the sparse
/// structure (pauli_decompose's CSR overload), so the scaled Laplacian is
/// never densified on the way to the Fig. 7 circuit — the Trotter backend
/// now rides the sparse spine like the operator oracle does.
Circuit build_estimator_circuit_trotter_sparse(
    const SparseScaledHamiltonian& scaled, const EstimatorOptions& options,
    bool with_purification) {
  const QpeLayout layout =
      make_layout(options, scaled.num_qubits, with_purification);
  QTDA_REQUIRE(layout.total() <= 30,
               "register of " << layout.total()
                              << " qubits exceeds the state-vector budget");
  Circuit circuit(layout.total());
  if (with_purification) {
    append_mixed_state_preparation(circuit, layout.ancilla_wires(),
                                   layout.system_wires());
  }
  circuit.append_circuit(
      build_trotter_qpe(pauli_decompose(scaled.matrix), options, layout));
  return circuit;
}

/// Sparse-oracle variant: the controlled powers are matrix-free operator
/// gates applying exp(i·p·H) by Chebyshev expansion — no 2^q×2^q matrix is
/// ever formed, so the budget is the state-vector width itself.
Circuit build_estimator_circuit_sparse(const SparseScaledHamiltonian& scaled,
                                       const EstimatorOptions& options,
                                       bool with_purification) {
  const QpeLayout layout =
      make_layout(options, scaled.num_qubits, with_purification);
  QTDA_REQUIRE(layout.total() <= 30,
               "register of " << layout.total()
                              << " qubits exceeds the state-vector budget");

  Circuit circuit(layout.total());
  if (with_purification) {
    append_mixed_state_preparation(circuit, layout.ancilla_wires(),
                                   layout.system_wires());
  }
  // All t controlled powers share one CSR copy of H; each operator owns
  // only its Chebyshev coefficients.
  const auto shared_h = std::make_shared<const SparseMatrix>(scaled.matrix);
  circuit.append_circuit(build_qpe_circuit_sparse(
      layout, [&](std::uint64_t power) -> std::shared_ptr<const LinearOperator> {
        return std::make_shared<SparseExpOperator>(
            shared_h, static_cast<double>(power), scaled.spectrum_min(),
            scaled.spectrum_max());
      }));
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

/// Circuit-level convenience: compile once, then execute.  Every shot
/// batch, sampled-basis state and noise trajectory reuses the one plan
/// (fused sweeps, precomputed masks/offsets, persistent scratch).  Noisy
/// runs compile with noise slots preserved so the error placement and RNG
/// draw order match the uncompiled walk exactly.
void execute_circuit_estimate(BettiEstimate& estimate, const Circuit& circuit,
                              const QpeLayout& layout,
                              const EstimatorOptions& options, bool purify,
                              Rng& rng) {
  estimate.total_qubits = circuit.num_qubits();
  estimate.circuit_gates = circuit.gate_count();
  estimate.circuit_depth = circuit.depth();
  const ExecutionPlan plan =
      compile_circuit(circuit, estimator_compiler_options(options.noise));
  execute_plan_estimate(estimate, plan, layout, options, purify, rng);
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

SparseMatrix dense_to_sparse(const RealMatrix& m) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m(i, j) != 0.0) triplets.push_back({i, j, m(i, j)});
  return SparseMatrix::from_triplets(m.rows(), m.cols(), std::move(triplets));
}

}  // namespace

CompilerOptions estimator_compiler_options(const NoiseModel& noise) {
  CompilerOptions options = compiler_options_from_env();
  options.preserve_noise_slots = !noise.is_noiseless();
  return options;
}

Circuit build_qtda_circuit(const RealMatrix& laplacian,
                           const EstimatorOptions& options) {
  QTDA_REQUIRE(options.backend != EstimatorBackend::kAnalytic,
               "the analytic backend has no circuit; pick a circuit backend");
  const double delta = options.delta > 0.0 ? options.delta : default_delta();
  const bool purify = options.mixed_state == MixedStateMode::kPurification;
  if (options.backend == EstimatorBackend::kCircuitSparse) {
    const SparsePaddedLaplacian padded =
        pad_laplacian_sparse(dense_to_sparse(laplacian), options.padding);
    return build_estimator_circuit_sparse(
        rescale_laplacian_sparse(padded, delta), options, purify);
  }
  const PaddedLaplacian padded = pad_laplacian(laplacian, options.padding);
  const ScaledHamiltonian scaled = rescale_laplacian(padded, delta);
  return build_estimator_circuit(scaled, options, purify);
}

Circuit build_qtda_circuit(const SparseMatrix& laplacian,
                           const EstimatorOptions& options) {
  QTDA_REQUIRE(options.backend == EstimatorBackend::kCircuitSparse ||
                   options.backend == EstimatorBackend::kCircuitTrotter,
               "the sparse circuit builder supports kCircuitSparse and "
               "kCircuitTrotter; the other backends need the dense matrix — "
               "use the dense overload");
  const double delta = options.delta > 0.0 ? options.delta : default_delta();
  const bool purify = options.mixed_state == MixedStateMode::kPurification;
  const SparsePaddedLaplacian padded =
      pad_laplacian_sparse(laplacian, options.padding);
  const SparseScaledHamiltonian scaled =
      rescale_laplacian_sparse(padded, delta);
  return options.backend == EstimatorBackend::kCircuitSparse
             ? build_estimator_circuit_sparse(scaled, options, purify)
             : build_estimator_circuit_trotter_sparse(scaled, options, purify);
}

BettiEstimate estimate_betti_from_laplacian(const RealMatrix& laplacian,
                                            const EstimatorOptions& options) {
  if (options.backend == EstimatorBackend::kCircuitSparse) {
    // The sparse entry point is the native path; converting a small dense
    // Laplacian costs nothing next to the simulation.
    return estimate_betti_from_sparse_laplacian(dense_to_sparse(laplacian),
                                                options);
  }
  validate_options(options);

  // q, λ̃max and the scale come from |S_k| and the Gershgorin bound; only
  // the dense circuit backends below form the padded 2^q×2^q matrices.
  const PaddingShape shape = padding_shape(laplacian);
  const double delta = options.delta > 0.0 ? options.delta : default_delta();
  const double scale = rescale_factor(shape.lambda_max, delta);

  BettiEstimate estimate;
  estimate.shots = options.shots;
  estimate.system_qubits = shape.num_qubits;
  estimate.precision_qubits = options.precision_qubits;
  estimate.lambda_max = shape.lambda_max;
  estimate.delta = delta;

  // Analytic reference p(0) of the exact H (used by every backend as the
  // ground-truth probability; the Trotter backend will deviate from it by
  // its splitting error).
  estimate.exact_zero_probability = analytic_zero_probability(
      scaled_padded_spectrum(laplacian, shape.num_qubits, shape.lambda_max,
                             scale, options.padding),
      options.precision_qubits);

  Rng rng(options.seed);
  const std::uint64_t dim = std::uint64_t{1} << shape.num_qubits;
  const bool purify = options.mixed_state == MixedStateMode::kPurification;

  if (options.backend == EstimatorBackend::kAnalytic) {
    estimate.zero_counts = sample_zero_counts(
        estimate.exact_zero_probability, options.shots, rng);
    estimate.total_qubits = options.precision_qubits + shape.num_qubits +
                            (purify ? shape.num_qubits : 0);
  } else {
    const ScaledHamiltonian scaled =
        rescale_laplacian(pad_laplacian(laplacian, options.padding), delta);
    const Circuit circuit = build_estimator_circuit(scaled, options, purify);
    const QpeLayout layout = make_layout(options, scaled.num_qubits, purify);
    execute_circuit_estimate(estimate, circuit, layout, options, purify, rng);
  }
  finalize_estimate(estimate, options, dim);
  return estimate;
}

CompiledEstimate compile_betti_estimate(const SparseMatrix& laplacian,
                                        const EstimatorOptions& options) {
  // Covers padding/rescaling, the diagnostic eigensolve, circuit synthesis
  // and plan compilation (compile_circuit nests its own "compile" span).
  QTDA_SPAN("compile_estimate");
  QTDA_REQUIRE(options.backend == EstimatorBackend::kCircuitSparse ||
                   options.backend == EstimatorBackend::kCircuitTrotter,
               "compile_betti_estimate serves the plan-based circuit "
               "backends (kCircuitSparse, kCircuitTrotter)");
  validate_options(options);

  const SparsePaddedLaplacian padded =
      pad_laplacian_sparse(laplacian, options.padding);
  const double delta = options.delta > 0.0 ? options.delta : default_delta();
  const SparseScaledHamiltonian scaled =
      rescale_laplacian_sparse(padded, delta);

  CompiledEstimate compiled;
  compiled.backend = options.backend;
  compiled.system_qubits = scaled.num_qubits;
  compiled.lambda_max = scaled.lambda_max;
  compiled.delta = delta;

  const std::uint64_t dim = std::uint64_t{1} << scaled.num_qubits;
  if (dim <= options.exact_reference_max_dim) {
    // Diagnostic reference from the dense |S_k|×|S_k| block; the estimate
    // itself is matrix-free.
    compiled.exact_zero_probability = analytic_zero_probability(
        scaled_padded_spectrum(laplacian.to_dense(), scaled.num_qubits,
                               scaled.lambda_max, scaled.scale,
                               options.padding),
        options.precision_qubits);
  }

  compiled.purify = options.mixed_state == MixedStateMode::kPurification;
  const Circuit circuit =
      options.backend == EstimatorBackend::kCircuitSparse
          ? build_estimator_circuit_sparse(scaled, options, compiled.purify)
          : build_estimator_circuit_trotter_sparse(scaled, options,
                                                   compiled.purify);
  compiled.layout = make_layout(options, scaled.num_qubits, compiled.purify);
  compiled.total_qubits = circuit.num_qubits();
  compiled.circuit_gates = circuit.gate_count();
  compiled.circuit_depth = circuit.depth();
  compiled.plan = std::make_shared<const ExecutionPlan>(
      compile_circuit(circuit, estimator_compiler_options(options.noise)));
  return compiled;
}

BettiEstimate estimate_betti_with_plan(const CompiledEstimate& compiled,
                                       const EstimatorOptions& options) {
  validate_options(options);
  QTDA_REQUIRE(compiled.plan != nullptr, "CompiledEstimate carries no plan");
  QTDA_REQUIRE(options.backend == compiled.backend,
               "estimate options switched circuit backend after compilation");
  QTDA_REQUIRE(options.precision_qubits == compiled.layout.precision_qubits,
               "estimate options changed the precision register after "
               "compilation");
  QTDA_REQUIRE((options.mixed_state == MixedStateMode::kPurification) ==
                   compiled.purify,
               "estimate options changed the mixed-state mode after "
               "compilation");
  QTDA_REQUIRE(options.noise.is_noiseless() ||
                   compiled.plan->preserves_noise_slots(),
               "noisy execution needs a plan compiled with noise slots "
               "preserved");

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
  execute_plan_estimate(estimate, *compiled.plan, compiled.layout, options,
                        compiled.purify, rng);
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
  if (options.backend != EstimatorBackend::kCircuitSparse &&
      options.backend != EstimatorBackend::kCircuitTrotter) {
    // The analytic and dense-oracle backends need the dense matrix anyway
    // (eigensolve), so densify up front.  kCircuitTrotter stays sparse: its
    // Pauli decomposition reads CSR directly.
    return estimate_betti_from_laplacian(laplacian.to_dense(), options);
  }
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
  if (options.backend == EstimatorBackend::kCircuitSparse ||
      options.backend == EstimatorBackend::kCircuitTrotter) {
    // CSR end to end: the dense |S_k|×|S_k| Laplacian is never formed (the
    // Trotter backend decomposes into Pauli strings straight from CSR).
    return estimate_betti_from_sparse_laplacian(
        sparse_combinatorial_laplacian(complex, k), options);
  }
  return estimate_betti_from_laplacian(combinatorial_laplacian(complex, k),
                                       options);
}

}  // namespace qtda
