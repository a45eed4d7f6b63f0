#include "quantum/noise.hpp"

namespace qtda {

Statevector run_noisy_trajectory(const ExecutionPlan& plan,
                                 const NoiseModel& noise, Rng& rng) {
  Statevector state(plan.num_qubits());
  state.apply_plan_with_noise(plan, noise, rng);
  if (plan.global_phase() != 0.0)
    state.apply_global_phase(plan.global_phase());
  return state;
}

}  // namespace qtda
