#include "quantum/backend.hpp"

#include <cstdlib>
#include <string>

#include "common/cpu_features.hpp"
#include "common/error.hpp"

namespace qtda {

namespace {

constexpr SimulatorKind kAllSimulatorKinds[] = {
    SimulatorKind::kStatevector,
    SimulatorKind::kDensityMatrix,
};

}  // namespace

std::string simulator_kind_name(SimulatorKind kind) {
  switch (kind) {
    case SimulatorKind::kStatevector: return "statevector";
    case SimulatorKind::kDensityMatrix: return "density-matrix";
  }
  return "?";
}

std::string simulator_kind_names() {
  std::string names;
  for (SimulatorKind kind : kAllSimulatorKinds) {
    if (!names.empty()) names += ", ";
    names += simulator_kind_name(kind);
  }
  return names;
}

SimulatorKind simulator_kind_from_name(const std::string& name) {
  for (SimulatorKind kind : kAllSimulatorKinds) {
    if (name == simulator_kind_name(kind)) return kind;
  }
  QTDA_REQUIRE(false, "unknown simulator \"" << name << "\" (valid: "
                                             << simulator_kind_names() << ")");
  return SimulatorKind::kStatevector;
}

template <typename Real>
BasicStatevectorBackend<Real>::BasicStatevectorBackend(std::size_t num_qubits)
    : state_(num_qubits) {}

template <typename Real>
void BasicStatevectorBackend<Real>::prepare_basis_state(std::uint64_t index) {
  state_.set_basis_state(index);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_plan(const ExecutionPlan& plan) {
  state_.apply_plan(plan);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_plan_with_noise(
    const ExecutionPlan& plan, const NoiseModel& noise, Rng& rng) {
  state_.apply_plan_with_noise(plan, noise, rng);
}

template <typename Real>
std::vector<double> BasicStatevectorBackend<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  return state_.marginal_probabilities(qubits);
}

template <typename Real>
std::vector<std::uint64_t> BasicStatevectorBackend<Real>::sample(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return state_.sample_counts(qubits, shots, rng);
}

template <typename Real>
BasicDensityMatrixBackend<Real>::BasicDensityMatrixBackend(
    std::size_t num_qubits)
    : state_(num_qubits) {}

template <typename Real>
void BasicDensityMatrixBackend<Real>::prepare_basis_state(
    std::uint64_t index) {
  state_.set_basis_state(index);
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_plan(const ExecutionPlan& plan) {
  state_.apply_plan(plan);
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_plan_with_noise(
    const ExecutionPlan& plan, const NoiseModel& noise, Rng& rng) {
  // Exact channels: deterministic, so the Rng of the trajectory-shaped
  // contract is intentionally untouched (exact_channels() advertises this).
  (void)rng;
  state_.apply_plan_with_noise(plan, noise);
}

template <typename Real>
std::vector<double> BasicDensityMatrixBackend<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  return state_.marginal_probabilities(qubits);
}

template <typename Real>
std::vector<std::uint64_t> BasicDensityMatrixBackend<Real>::sample(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return state_.sample_counts(qubits, shots, rng);
}

template class BasicStatevectorBackend<double>;
template class BasicStatevectorBackend<float>;
template class BasicDensityMatrixBackend<double>;
template class BasicDensityMatrixBackend<float>;

namespace {

template <typename Real>
std::unique_ptr<SimulatorBackend> make_simulator_at(SimulatorKind kind,
                                                    std::size_t num_qubits) {
  switch (kind) {
    case SimulatorKind::kStatevector:
      return std::make_unique<BasicStatevectorBackend<Real>>(num_qubits);
    case SimulatorKind::kDensityMatrix:
      return std::make_unique<BasicDensityMatrixBackend<Real>>(num_qubits);
  }
  QTDA_REQUIRE(false, "unknown simulator kind");
  return nullptr;
}

}  // namespace

std::unique_ptr<SimulatorBackend> make_simulator(SimulatorKind kind,
                                                 std::size_t num_qubits,
                                                 Precision precision) {
  // CI / debugging hook: force every factory-built engine onto one kind and
  // precision without touching call sites.  The density-matrix engine needs
  // the width guard below because of its 4^n storage cap.
  bool kind_forced_by_env = false;
  if (const char* forced = std::getenv("QTDA_SIMULATOR");
      forced != nullptr && *forced != '\0') {
    // Re-raise parse failures with the variable named: a malformed override
    // set process-wide (e.g. by CI) must not surface as a bare unknown-name
    // error with no hint where the name came from.
    try {
      kind = simulator_kind_from_name(forced);
    } catch (const Error&) {
      QTDA_REQUIRE(false, "QTDA_SIMULATOR=\""
                              << forced
                              << "\" is not a valid simulator name (valid: "
                              << simulator_kind_names() << ")");
    }
    kind_forced_by_env = true;
  }
  // Throws with the variable named on malformed values (see precision.hpp).
  if (const std::optional<Precision> forced = precision_from_env())
    precision = *forced;
  // Validate QTDA_SIMD eagerly too: a typo'd SIMD override should fail at
  // engine construction, attributed to its variable, not when the first hot
  // kernel dispatches.
  (void)simd_level_from_env();
  if (kind == SimulatorKind::kDensityMatrix &&
      num_qubits > kDensityMatrixMaxQubits) {
    QTDA_REQUIRE(false,
                 "the density-matrix simulator stores 4^n amplitudes and "
                 "supports at most "
                     << kDensityMatrixMaxQubits << " qubits, but "
                     << num_qubits << " were requested"
                     << (kind_forced_by_env
                             ? " (QTDA_SIMULATOR=density-matrix forced the "
                               "engine; unset it or use the statevector "
                               "engine for registers this wide)"
                             : ""));
  }
  return precision == Precision::kFloat64
             ? make_simulator_at<double>(kind, num_qubits)
             : make_simulator_at<float>(kind, num_qubits);
}

}  // namespace qtda
