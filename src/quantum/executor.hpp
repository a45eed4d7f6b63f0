/// \file executor.hpp
/// \brief The plan-op walks every engine's apply_plan and
/// apply_plan_with_noise run through (telemetry accounting, deadline
/// checkpoints, noise placement), plus circuit execution and shot sampling
/// (ideal and noisy) on top of them: a Circuit runs as an unfused plan, or
/// as a noise-slot plan when noisy.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"
#include "quantum/statevector.hpp"

namespace qtda {

namespace plan_accounting {

/// One slot per CompiledOp::Kind (kSingleQubit, kBlock, kDiagonal,
/// kOperator), in enum order.
constexpr std::size_t kNumKinds = 4;

/// Flushes one plan execution's per-kind op counts and nanoseconds into the
/// exec.ops.* / exec.ns.* telemetry counters.  Called once per apply_plan
/// (not per op), so the registry is touched O(1) times per evolution.
void record(const std::array<std::uint64_t, kNumKinds>& ns,
            const std::array<std::uint64_t, kNumKinds>& ops);

}  // namespace plan_accounting

/// Walks a plan's ops through \p fn.  With telemetry disabled this is the
/// plain range-for every engine ran before instrumentation existed; with it
/// enabled, each op is timed and the totals are flushed per kind.  The
/// callback's arithmetic is identical either way — timing wraps the call,
/// so bit-identity fingerprints cannot move.  Each op boundary is also a
/// cooperative-cancellation checkpoint: a served request whose deadline
/// passes mid-evolution aborts between ops (each op is a full register
/// pass, so this bounds overrun without per-amplitude checks).
template <typename Fn>
void for_each_plan_op_accounted(const ExecutionPlan& plan, Fn&& fn) {
  if (!telemetry::enabled()) {
    for (const CompiledOp& op : plan.ops()) {
      cancel::checkpoint();
      fn(op);
    }
    return;
  }
  std::array<std::uint64_t, plan_accounting::kNumKinds> ns{};
  std::array<std::uint64_t, plan_accounting::kNumKinds> ops{};
  for (const CompiledOp& op : plan.ops()) {
    cancel::checkpoint();
    const auto start = std::chrono::steady_clock::now();
    fn(op);
    const auto stop = std::chrono::steady_clock::now();
    const auto kind = static_cast<std::size_t>(op.kind);
    ns[kind] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    ops[kind] += 1;
  }
  plan_accounting::record(ns, ops);
}

/// The noisy walk every noisy plan executor shares: walks a
/// noise-slot-preserving plan through for_each_plan_op_accounted, invoking
/// `apply_op(const CompiledOp&)` per op and then
/// `apply_error(qubit, probability)` for every touched qubit of its source
/// gate (targets before controls, two-qubit strength when the gate touched
/// ≥ 2 wires).  Existing in one place only, the trajectory and
/// exact-channel engines cannot drift apart in error placement or RNG draw
/// order.  The error events count toward their op's exec.ns.* time.
template <typename ApplyOp, typename ApplyError>
void for_each_plan_op_with_noise(const ExecutionPlan& plan,
                                 const NoiseModel& noise, ApplyOp&& apply_op,
                                 ApplyError&& apply_error) {
  QTDA_REQUIRE(plan.preserves_noise_slots(),
               "noisy execution needs a plan compiled with "
               "preserve_noise_slots (error placement would otherwise "
               "change)");
  for_each_plan_op_accounted(plan, [&](const CompiledOp& op) {
    apply_op(op);
    const double p =
        op.noise_multi ? noise.two_qubit_error : noise.single_qubit_error;
    if (p <= 0.0) return;
    for (std::size_t q : op.noise_qubits) apply_error(q, p);
  });
}

/// Runs a circuit from |0…0⟩ as an unfused plan and returns the final
/// state (the gate-by-gate arithmetic, global phase included).
Statevector run_circuit(const Circuit& circuit);

/// Ideal sampling: one state-vector evolution, exact multinomial shots over
/// the measured qubits (MSB-first outcome encoding).
std::vector<std::uint64_t> sample_circuit(
    const Circuit& circuit, const std::vector<std::size_t>& measured_qubits,
    std::size_t shots, Rng& rng);

/// Noisy sampling by Monte-Carlo trajectories: the circuit compiles once
/// into a noise-slot plan, and each shot evolves its own trajectory with
/// stochastic Pauli errors injected per gate, then draws one outcome.
/// Exact but O(shots · circuit) — use modest shot counts.
std::vector<std::uint64_t> sample_circuit_noisy(
    const Circuit& circuit, const std::vector<std::size_t>& measured_qubits,
    std::size_t shots, const NoiseModel& noise, Rng& rng);

}  // namespace qtda
