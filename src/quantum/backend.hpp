/// \file backend.hpp
/// \brief Pluggable simulator backends.
///
/// The estimator and pipeline drive simulations through this interface
/// instead of a concrete Statevector, so alternative engines — such as the
/// exact density-matrix backend for noise studies — can drop in without
/// touching the algorithm layer.  The contract is deliberately small and
/// plan-only: prepare a basis state, execute a compiled ExecutionPlan
/// (quantum/compiler.hpp) with or without depolarizing noise, and read
/// marginals or sample.  A Circuit runs by compiling it first (fusion off
/// for the gate-by-gate arithmetic, preserve_noise_slots for noise); the
/// plan walks themselves live in the engines, which the backends forward
/// to.
///
/// Every engine exists at two precisions (quantum/precision.hpp): the
/// backend classes are templated over the amplitude scalar and the factory
/// picks the width from EstimatorOptions::precision or the QTDA_PRECISION
/// environment override.  A backend's name() reports its *kind* only —
/// "statevector" at float is still interchangeable with "statevector" at
/// double through this interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "quantum/compiler.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/noise.hpp"
#include "quantum/precision.hpp"
#include "quantum/statevector.hpp"

namespace qtda {

/// Which simulation engine executes the circuits.  The enumerator values
/// are stable identifiers (gtest prints them in the names of the tests
/// parameterized over engines), so they are spelled out and never reused.
enum class SimulatorKind {
  kStatevector = 0,    ///< dense state vector (the reference engine)
  kDensityMatrix = 2,  ///< exact-channel ρ evolution (4^n storage, q ≤ 13)
};

/// Printable name ("statevector", …).
std::string simulator_kind_name(SimulatorKind kind);

/// Comma-separated list of every valid simulator name (for CLI help and
/// error messages).
std::string simulator_kind_names();

/// Inverse of simulator_kind_name: parses a simulator name from the CLI or
/// the QTDA_SIMULATOR environment override.  Throws an Error listing the
/// valid names when \p name matches none of them.
SimulatorKind simulator_kind_from_name(const std::string& name);

/// One simulation engine instance holding the quantum state.
class SimulatorBackend {
 public:
  virtual ~SimulatorBackend() = default;

  virtual std::string name() const = 0;
  virtual std::size_t num_qubits() const = 0;

  /// The amplitude scalar width this engine runs at.
  virtual Precision precision() const = 0;

  /// Resets the state to the computational basis state |index⟩.
  virtual void prepare_basis_state(std::uint64_t index) = 0;

  /// Executes a compiled plan, including its global phase.  One plan may
  /// be reused across many executions (that is the point), but only one
  /// executor may run it at a time: the scratch arena is shared.
  virtual void apply_plan(const ExecutionPlan& plan) = 0;

  /// Noisy counterpart of apply_plan on the *current* state (callers
  /// prepare it first): the plan must have been compiled with
  /// preserve_noise_slots, and after each op one depolarizing event runs
  /// per touched qubit of its source gate — targets before controls, at
  /// the two-qubit strength when the gate touched ≥ 2 wires.  Trajectory
  /// backends sample one stochastic trajectory; exact-channel backends
  /// evolve the ensemble itself.  The global phase is dropped: it is
  /// unobservable through this interface's measurements and cancels on ρ.
  virtual void apply_plan_with_noise(const ExecutionPlan& plan,
                                     const NoiseModel& noise, Rng& rng) = 0;

  /// True when apply_plan_with_noise applies the exact channels
  /// (deterministic — the Rng is not consumed), so a single noisy
  /// evolution already yields the full ensemble state and callers can draw
  /// every shot from it instead of re-running one trajectory per shot.
  virtual bool exact_channels() const { return false; }

  /// Marginal distribution over an ordered qubit subset (MSB-first).
  virtual std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const = 0;

  /// Draws \p shots outcomes over the given qubits; counts by outcome.
  virtual std::vector<std::uint64_t> sample(
      const std::vector<std::size_t>& qubits, std::size_t shots,
      Rng& rng) const = 0;
};

/// Dense state-vector implementation — the first (reference) backend.
template <typename Real>
class BasicStatevectorBackend final : public SimulatorBackend {
 public:
  explicit BasicStatevectorBackend(std::size_t num_qubits);

  std::string name() const override { return "statevector"; }
  std::size_t num_qubits() const override { return state_.num_qubits(); }
  Precision precision() const override { return precision_of<Real>(); }
  void prepare_basis_state(std::uint64_t index) override;
  void apply_plan(const ExecutionPlan& plan) override;
  void apply_plan_with_noise(const ExecutionPlan& plan,
                             const NoiseModel& noise, Rng& rng) override;
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const override;
  std::vector<std::uint64_t> sample(const std::vector<std::size_t>& qubits,
                                    std::size_t shots, Rng& rng) const override;

  /// The underlying state, for backend-aware diagnostics and tests.
  const BasicStatevector<Real>& state() const { return state_; }
  BasicStatevector<Real>& state() { return state_; }

 private:
  BasicStatevector<Real> state_;
};

using StatevectorBackend = BasicStatevectorBackend<double>;
using StatevectorBackendF32 = BasicStatevectorBackend<float>;

/// Exact-channel implementation: evolves ρ itself (4^n vectorized storage,
/// at most 13 qubits), so depolarizing noise is applied *exactly* instead of
/// sampled — the reference that trajectory ensembles converge to.  Gates run
/// as U ⊗ conj(U) on the 2n-qubit vectorization; matrix-free operator gates
/// stay matrix-free via the ConjugatedOperator adapter on the column
/// register, so the sparse QPE oracle composes with exact noise.
/// apply_plan_with_noise keeps the Rng signature of the contract but never
/// consumes it (exact_channels() returns true): one noisy evolution is the
/// whole ensemble, and every shot samples from it.
template <typename Real>
class BasicDensityMatrixBackend final : public SimulatorBackend {
 public:
  explicit BasicDensityMatrixBackend(std::size_t num_qubits);

  std::string name() const override { return "density-matrix"; }
  std::size_t num_qubits() const override { return state_.num_qubits(); }
  Precision precision() const override { return precision_of<Real>(); }
  void prepare_basis_state(std::uint64_t index) override;
  void apply_plan(const ExecutionPlan& plan) override;
  void apply_plan_with_noise(const ExecutionPlan& plan,
                             const NoiseModel& noise, Rng& rng) override;
  bool exact_channels() const override { return true; }
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const override;
  std::vector<std::uint64_t> sample(const std::vector<std::size_t>& qubits,
                                    std::size_t shots, Rng& rng) const override;

  /// The underlying density matrix, for backend-aware diagnostics and tests.
  const BasicDensityMatrix<Real>& state() const { return state_; }
  BasicDensityMatrix<Real>& state() { return state_; }

 private:
  BasicDensityMatrix<Real> state_;
};

using DensityMatrixBackend = BasicDensityMatrixBackend<double>;
using DensityMatrixBackendF32 = BasicDensityMatrixBackend<float>;

extern template class BasicStatevectorBackend<double>;
extern template class BasicStatevectorBackend<float>;
extern template class BasicDensityMatrixBackend<double>;
extern template class BasicDensityMatrixBackend<float>;

/// Factory used by the estimator options plumbing.  \p precision selects
/// the amplitude scalar (complex128 by default).
///
/// Environment overrides (read per call): QTDA_SIMULATOR forces the engine
/// by name and QTDA_PRECISION forces the scalar width — the hooks the CI
/// legs use to route unmodified tests through the density-matrix or the
/// complex64 engines.  QTDA_SIMD is validated eagerly here too, so a
/// malformed SIMD override fails at backend construction with the variable
/// named instead of deep inside the first hot kernel.  Malformed values
/// fail fast with the variable named in the error, and forcing
/// density-matrix onto a register wider than its 13-qubit 4^n storage cap
/// is rejected here (clearly attributed to the override) instead of
/// surfacing a construction failure from deep inside a run.
std::unique_ptr<SimulatorBackend> make_simulator(
    SimulatorKind kind, std::size_t num_qubits,
    Precision precision = Precision::kFloat64);

}  // namespace qtda
