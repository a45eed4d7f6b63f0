/// \file noise.hpp
/// \brief Stochastic Pauli (depolarizing) noise — the paper's NISQ
/// future-work axis.
///
/// A depolarizing channel of strength p on a qubit applies a uniformly
/// random non-identity Pauli with probability p.  The noisy plan walk
/// (executor.hpp's for_each_plan_op_with_noise) inserts such errors after
/// every gate of a noise-slot plan, on every qubit the gate touches, with
/// separate strengths for single- and multi-qubit gates (hardware
/// two-qubit error rates are typically an order of magnitude worse).
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "common/random.hpp"
#include "quantum/compiler.hpp"
#include "quantum/gates.hpp"
#include "quantum/statevector.hpp"

namespace qtda {

/// Depolarizing noise strengths.
struct NoiseModel {
  double single_qubit_error = 0.0;  ///< per touched qubit, 1q gates
  double two_qubit_error = 0.0;     ///< per touched qubit, ≥2q gates

  bool is_noiseless() const {
    return single_qubit_error <= 0.0 && two_qubit_error <= 0.0;
  }
};

/// Applies one stochastic depolarizing event to \p qubit with probability
/// \p probability (X, Y or Z uniformly when it fires): one Bernoulli draw,
/// then one uniform index when the error fires.  Templated over the state
/// (any state exposing apply_single_qubit — BasicStatevector at either
/// precision).
template <typename State>
void maybe_apply_depolarizing(State& state, std::size_t qubit,
                              double probability, Rng& rng) {
  if (probability <= 0.0) return;
  QTDA_REQUIRE(probability <= 1.0, "error probability above 1");
  if (!rng.bernoulli(probability)) return;
  switch (rng.uniform_index(3)) {
    case 0:
      state.apply_single_qubit(gates::X(), qubit);
      break;
    case 1:
      state.apply_single_qubit(gates::Y(), qubit);
      break;
    default:
      state.apply_single_qubit(gates::Z(), qubit);
      break;
  }
}

/// Runs one noisy trajectory of a plan from |0…0⟩: the plan must have been
/// compiled with preserve_noise_slots (compile a Circuit that way first),
/// so every trajectory of an ensemble reuses the precompiled ops and the
/// plan's scratch arena.  The walk is BasicStatevector::apply_plan_with_noise;
/// the plan's global phase is applied after it.
Statevector run_noisy_trajectory(const ExecutionPlan& plan,
                                 const NoiseModel& noise, Rng& rng);

}  // namespace qtda
