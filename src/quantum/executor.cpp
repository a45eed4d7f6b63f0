#include "quantum/executor.hpp"

namespace qtda {

namespace plan_accounting {

namespace {

/// Counter pairs in CompiledOp::Kind enum order; resolved once, cached for
/// the process lifetime (registry entries are never destroyed).
struct KindCounters {
  telemetry::Counter* ns[kNumKinds];
  telemetry::Counter* ops[kNumKinds];
};

const KindCounters& kind_counters() {
  static const KindCounters counters = [] {
    static const char* const kKindNames[kNumKinds] = {
        "single_qubit", "block", "diagonal", "operator"};
    KindCounters out;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      out.ns[k] = &telemetry::registry().counter(std::string("exec.ns.") +
                                                 kKindNames[k]);
      out.ops[k] = &telemetry::registry().counter(std::string("exec.ops.") +
                                                  kKindNames[k]);
    }
    return out;
  }();
  return counters;
}

}  // namespace

void record(const std::array<std::uint64_t, kNumKinds>& ns,
            const std::array<std::uint64_t, kNumKinds>& ops) {
  const KindCounters& counters = kind_counters();
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    if (ops[k] == 0) continue;
    counters.ns[k]->add(ns[k]);
    counters.ops[k]->add(ops[k]);
  }
}

}  // namespace plan_accounting

Statevector run_circuit(const Circuit& circuit) {
  CompilerOptions unfused;
  unfused.fuse = false;
  Statevector state(circuit.num_qubits());
  state.apply_plan(compile_circuit(circuit, unfused));
  return state;
}

std::vector<std::uint64_t> sample_circuit(
    const Circuit& circuit, const std::vector<std::size_t>& measured_qubits,
    std::size_t shots, Rng& rng) {
  const Statevector state = run_circuit(circuit);
  return state.sample_counts(measured_qubits, shots, rng);
}

std::vector<std::uint64_t> sample_circuit_noisy(
    const Circuit& circuit, const std::vector<std::size_t>& measured_qubits,
    std::size_t shots, const NoiseModel& noise, Rng& rng) {
  if (noise.is_noiseless())
    return sample_circuit(circuit, measured_qubits, shots, rng);
  QTDA_REQUIRE(!measured_qubits.empty(), "no measured qubits");
  CompilerOptions options;
  options.preserve_noise_slots = true;
  const ExecutionPlan plan = compile_circuit(circuit, options);
  std::vector<std::uint64_t> counts(std::uint64_t{1} << measured_qubits.size(),
                                    0);
  for (std::size_t s = 0; s < shots; ++s) {
    const Statevector state = run_noisy_trajectory(plan, noise, rng);
    const auto one = state.sample_counts(measured_qubits, 1, rng);
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += one[i];
  }
  return counts;
}

}  // namespace qtda
