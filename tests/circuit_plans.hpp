/// \file circuit_plans.hpp
/// \brief The two plans a test runs a Circuit as: fusion off (the engines'
/// gate-by-gate arithmetic, global phase included) for apply_plan, or
/// noise slots for the apply_plan_with_noise walks — plus the gate-by-gate
/// noisy walk those plans are checked against.
#pragma once

#include <cstddef>

#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"

namespace qtda {
namespace testing {

inline ExecutionPlan unfused_plan(const Circuit& circuit) {
  CompilerOptions options;
  options.fuse = false;
  return compile_circuit(circuit, options);
}

inline ExecutionPlan noise_slot_plan(const Circuit& circuit) {
  CompilerOptions options;
  options.preserve_noise_slots = true;
  return compile_circuit(circuit, options);
}

/// The error placement noise-slot plans must keep, spelled out gate by gate
/// on an engine's primitives: after each gate, one error event per touched
/// qubit — targets before controls — at the two-qubit strength when the
/// gate touches ≥ 2 wires.  The global phase is left to the caller.
template <typename State, typename ApplyError>
void walk_gates_with_noise(const Circuit& circuit, const NoiseModel& noise,
                           State& state, ApplyError&& apply_error) {
  for (const Gate& gate : circuit.gates()) {
    state.apply_gate(gate);
    const bool multi = gate.targets.size() + gate.controls.size() >= 2;
    const double p = multi ? noise.two_qubit_error : noise.single_qubit_error;
    if (p <= 0.0) continue;
    for (std::size_t q : gate.targets) apply_error(q, p);
    for (std::size_t q : gate.controls) apply_error(q, p);
  }
}

}  // namespace testing
}  // namespace qtda
