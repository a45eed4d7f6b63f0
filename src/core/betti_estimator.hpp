/// \file betti_estimator.hpp
/// \brief The paper's QTDA algorithm: Betti numbers from QPE statistics.
///
/// Pipeline (paper §3): Δ_k → pad (Eq. 7) → rescale (Eq. 8–9) → QPE on the
/// maximally mixed state → β̃ = 2^q·p(0) (Eq. 10–11).  Four interchangeable
/// backends execute the QPE stage:
///
///  * kAnalytic       — exact p(0) via the Fejér-kernel average plus a
///                      Binomial shot draw.  Mathematically identical to the
///                      exact circuit; used for the large Fig. 3 sweeps.
///  * kCircuitExact   — full state-vector QPE (Fig. 6) with dense controlled
///                      U^{2^j} oracles (the densified padded H, O(4^q)
///                      memory per oracle) and genuine multinomial shots.
///  * kCircuitSparse  — same network, but the controlled powers act on the
///                      system register matrix-free: Δ̃_k stays in CSR end to
///                      end and exp(i·p·H) is applied by Chebyshev expansion
///                      (linalg/expm_multiply.hpp).  No 2^q×2^q matrix is
///                      formed, pushing feasible system sizes far past the
///                      dense oracle's ceiling.
///  * kCircuitTrotter — same network with U synthesized gate-by-gate from
///                      the Pauli decomposition (Fig. 7), exposing Trotter
///                      error and circuit depth; supports the noise model.
///
/// All four run one path: compile_betti_estimate pads and rescales the CSR
/// Laplacian, computes the exact p(0) and (circuit backends) builds and
/// compiles the circuit; estimate_betti_with_plan executes it.  Dense inputs
/// convert with SparseMatrix::from_dense at the entry point.  Circuit
/// execution is routed through the pluggable SimulatorBackend interface
/// (quantum/backend.hpp), selected by EstimatorOptions::simulator.
///
/// Mixed-state input comes either from the purification circuit (Fig. 2,
/// q extra ancillas) or from per-shot sampling of uniformly random basis
/// states (statistically identical, half the qubits).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.hpp"
#include "core/analytic_qpe.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/backend.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"
#include "quantum/qpe.hpp"
#include "quantum/trotter.hpp"
#include "topology/simplicial_complex.hpp"

namespace qtda {

/// Execution backend of the QPE stage.
enum class EstimatorBackend {
  kAnalytic,
  kCircuitExact,
  kCircuitSparse,
  kCircuitTrotter,
};

/// Printable name ("analytic", "exact", "sparse", "trotter"): the wire
/// protocol's spelling and the serving layer's plan-key axis.
std::string estimator_backend_name(EstimatorBackend backend);

/// How the maximally mixed system register is realised.
enum class MixedStateMode {
  kPurification,   ///< Fig. 2 circuit, q ancillas
  kSampledBasis,   ///< uniformly random basis state per shot
};

/// Full configuration of one estimate.
struct EstimatorOptions {
  std::size_t precision_qubits = 4;  ///< t
  std::size_t shots = 1000;          ///< α
  double delta = 0.0;                ///< 0 → default_delta(); Appendix A uses λ̃max
  EstimatorBackend backend = EstimatorBackend::kAnalytic;
  /// Simulation engine.  kDensityMatrix evolves ρ exactly (4^n storage,
  /// register ≤ 13 qubits): noisy runs apply the depolarizing channel
  /// exactly and draw every shot from one ensemble evolution — the
  /// reference run_noisy_trajectory converges to — and compose with the
  /// matrix-free kCircuitSparse oracle (conjugated on the column register).
  SimulatorKind simulator = SimulatorKind::kStatevector;
  /// Amplitude scalar of the simulation engine.  kFloat64 is the reference;
  /// kFloat32 halves statevector memory and bandwidth at ~1e-7 relative
  /// amplitude error — safe for Betti estimation whenever the QPE phase
  /// gap is far above that (see README "Performance tuning").  Overridable
  /// process-wide with QTDA_PRECISION.
  Precision precision = Precision::kFloat64;
  MixedStateMode mixed_state = MixedStateMode::kPurification;
  PaddingScheme padding = PaddingScheme::kIdentityHalfLambdaMax;
  /// Trotter configuration for kCircuitTrotter; `steps` counts splitting
  /// steps *per unit of simulated time* (the controlled power U^{2^j}
  /// automatically gets 2^j times as many).
  TrotterOptions trotter;
  NoiseModel noise;                  ///< only honoured by circuit backends
  std::uint64_t seed = 42;           ///< shot-sampling RNG seed
};

/// Outcome of one estimate.
struct BettiEstimate {
  double estimated_betti = 0.0;      ///< β̃ = 2^q · p̂(0) (rational, Eq. 11)
  std::size_t rounded_betti = 0;     ///< nearest whole number
  double zero_probability = 0.0;     ///< p̂(0) from shots
  /// Analytic p(0) of the same H; the circuit backends leave it 0 once
  /// 2^q > 4096 (a diagnostic whose eigensolve costs O(|S_k|³)).
  double exact_zero_probability = 0.0;
  std::uint64_t zero_counts = 0;     ///< shots that measured phase 0
  std::size_t shots = 0;             ///< α
  std::size_t system_qubits = 0;     ///< q
  std::size_t precision_qubits = 0;  ///< t
  std::size_t total_qubits = 0;      ///< register width actually simulated
  double lambda_max = 0.0;           ///< Gershgorin bound used
  double delta = 0.0;                ///< δ used
  std::size_t circuit_gates = 0;     ///< 0 for the analytic backend
  std::size_t circuit_depth = 0;     ///< 0 for the analytic backend
};

/// The compile policy of the estimator's execution stage: the
/// environment-driven fusion switch (QTDA_FUSE), with noise slots preserved
/// whenever the noise model is active so error placement and RNG order are
/// those of a gate-by-gate walk.  Exposed so stats/diagnostic surfaces report the
/// plan the estimator actually runs instead of re-deriving the policy.
CompilerOptions estimator_compiler_options(const NoiseModel& noise);

/// Builds the paper's full circuit (Fig. 2 purification prep when the
/// mixed-state mode asks for it, plus the Fig. 6 QPE network) for a given
/// Laplacian — the circuit compile_betti_estimate compiles, exposed for
/// circuit-level studies: depth accounting, the compiler's report, and
/// exact density-matrix noise analysis.  Requires a circuit backend in
/// `options.backend`, which picks the controlled powers: Chebyshev operator
/// gates (kCircuitSparse), Trotterized Pauli fragments (kCircuitTrotter) or
/// dense unitaries (kCircuitExact).
Circuit build_qtda_circuit(const SparseMatrix& laplacian,
                           const EstimatorOptions& options);

/// Dense adapter: build_qtda_circuit(SparseMatrix::from_dense(laplacian)).
Circuit build_qtda_circuit(const RealMatrix& laplacian,
                           const EstimatorOptions& options);

/// The reusable, request-independent half of an estimate: padding and
/// rescaling bookkeeping, the exact p(0), and (circuit backends) the compiled
/// ExecutionPlan of the full QPE circuit.  Produced once by
/// compile_betti_estimate, executed any number of times by
/// estimate_betti_with_plan — every cold estimate *is* compile + execute, so
/// handing a cached CompiledEstimate to the execute half changes where the
/// plan comes from, never what it computes (the serving layer's
/// bit-identity contract).  An analytic estimate carries no plan: it
/// executes as a Binomial draw from exact_zero_probability.
///
/// A CompiledEstimate may be shared across threads, but executions of one
/// instance must be externally serialized: the plan's scratch arena is
/// shared mutable state (same one-executor-at-a-time contract as
/// ExecutionPlan itself).
struct CompiledEstimate {
  std::shared_ptr<const ExecutionPlan> plan;  ///< null for kAnalytic
  QpeLayout layout;
  bool purify = true;            ///< mixed-state mode baked into the circuit
  EstimatorBackend backend = EstimatorBackend::kCircuitSparse;
  std::size_t system_qubits = 0;  ///< q
  std::size_t total_qubits = 0;   ///< register width of the circuit
  std::size_t circuit_gates = 0;  ///< 0 for kAnalytic
  std::size_t circuit_depth = 0;  ///< 0 for kAnalytic
  double lambda_max = 0.0;
  double delta = 0.0;
  double exact_zero_probability = 0.0;  ///< 0 when the eigensolve was skipped

  /// Approximate resident size (plan + bookkeeping) — the byte-accounting
  /// unit of the serving layer's artifact cache.
  std::size_t memory_bytes() const {
    return sizeof(CompiledEstimate) +
           (plan == nullptr ? 0 : plan->memory_bytes());
  }
};

/// Builds and compiles everything about an estimate that does not depend on
/// the per-request shot state (seed, shots, engine choice), for any backend:
/// q and λ̃max from padding_shape, the exact p(0) from the |S_k|×|S_k| block
/// (always for kAnalytic; for the circuit backends while 2^q ≤ 4096), and for
/// the circuit backends pad → rescale → circuit → ExecutionPlan.
CompiledEstimate compile_betti_estimate(const SparseMatrix& laplacian,
                                        const EstimatorOptions& options);

/// Executes a previously compiled estimate.  \p options must be
/// plan-compatible with the options the estimate was compiled under (same
/// backend, precision qubits, mixed-state mode, and — when noisy — a plan
/// compiled with noise slots); shots, seed, simulator kind and amplitude
/// precision are free to vary per call.  Bit-identical to running
/// estimate_betti_from_sparse_laplacian with the same options.
BettiEstimate estimate_betti_with_plan(const CompiledEstimate& compiled,
                                       const EstimatorOptions& options);

/// Executes one compiled estimate for many requests off a single state
/// evolution.  Restricted to the batchable regime: noiseless purification
/// circuits, where the final state is a deterministic function of the plan —
/// so one evolution followed by per-request shot sampling (each request's
/// own Rng seeded from its own seed, in request order) is *bit-identical* to
/// running estimate_betti_with_plan once per request.  Every request must be
/// plan-compatible (same checks as estimate_betti_with_plan) and share the
/// simulator kind and amplitude precision; shots and seed are free to
/// vary.  Returns the estimates in request order.  An analytic estimate
/// has no plan to evolve and is rejected.
std::vector<BettiEstimate> estimate_betti_batch(
    const CompiledEstimate& compiled,
    const std::vector<EstimatorOptions>& requests);

/// Estimates β̃_k from a sparse combinatorial Laplacian: compile + execute.
BettiEstimate estimate_betti_from_sparse_laplacian(
    const SparseMatrix& laplacian, const EstimatorOptions& options);

/// Dense adapter: estimate_betti_from_sparse_laplacian over
/// SparseMatrix::from_dense(laplacian).
BettiEstimate estimate_betti_from_laplacian(const RealMatrix& laplacian,
                                            const EstimatorOptions& options);

/// Estimates β̃_k of a simplicial complex from its CSR Laplacian.  Returns an
/// exact zero estimate when the complex has no k-simplices.
BettiEstimate estimate_betti(const SimplicialComplex& complex, int k,
                             const EstimatorOptions& options);

}  // namespace qtda
