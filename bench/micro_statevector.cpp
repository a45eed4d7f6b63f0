/// \file micro_statevector.cpp
/// \brief google-benchmark microbenches for the state-vector kernels.
///
/// BM_GateSweepDense/q runs one QPE-shaped gate sweep (an unfused plan)
/// through the statevector backend and BM_OperatorOracleDense/q one
/// controlled Chebyshev oracle on a random state: the reference marks for
/// parallelizing the engine's gate kernels.  BM_PurificationPrep/n runs the
/// estimator's purification prep and precision Hadamards as a compiled plan
/// at the perfbench register sizes, swept over the whole register, and
/// BM_PurificationPrepFromBasis/n runs it the estimator's way, folded onto
/// the support of |0…0⟩.  The operator kernel applies its oracle once per
/// distinct block; the two ends of that are BM_OperatorOracleDistinct/q (a
/// random state: every block distinct, all hashed, none skipped) and
/// BM_PurifiedQpeOracle/n (the purified t = 3 ladder, where 5 of 12 blocks
/// repeat).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/executor.hpp"
#include "quantum/gates.hpp"
#include "quantum/mixed_state.hpp"
#include "quantum/statevector.hpp"

namespace {

using namespace qtda;

/// A gate sweep shaped like one QPE fragment: an H wall, an entangling CNOT
/// chain, and a rotation layer.
Circuit sweep_circuit(std::size_t q) {
  Circuit circuit(q);
  for (std::size_t w = 0; w < q; ++w) circuit.h(w);
  for (std::size_t w = 1; w < q; ++w) circuit.cnot(w - 1, w);
  for (std::size_t w = 0; w < q; ++w)
    circuit.rz(w, 0.1 * static_cast<double>(w + 1));
  return circuit;
}

/// Tridiagonal symmetric CSR Hamiltonian of dimension 2^m.
SparseMatrix tridiagonal_hamiltonian(std::size_t m) {
  const std::size_t dim = std::size_t{1} << m;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < dim; ++i) {
    triplets.push_back({i, i, 2.0});
    if (i + 1 < dim) {
      triplets.push_back({i, i + 1, -1.0});
      triplets.push_back({i + 1, i, -1.0});
    }
  }
  return SparseMatrix::from_triplets(dim, dim, std::move(triplets));
}

void BM_GateSweepDense(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  StatevectorBackend backend(q);
  const Circuit circuit = sweep_circuit(q);
  CompilerOptions unfused;
  unfused.fuse = false;
  const ExecutionPlan plan = compile_circuit(circuit, unfused);
  for (auto _ : state) {
    backend.apply_plan(plan);
    benchmark::DoNotOptimize(backend.state().amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(circuit.gate_count()) *
                          static_cast<std::int64_t>(1ULL << q));
}
BENCHMARK(BM_GateSweepDense)->DenseRange(12, 16, 2);

/// A random q-qubit state (seeded, normalized) with one controlled oracle
/// over the q − 2 system wires below 2 precision wires: two distinct
/// blocks of 2^(q−2) amplitudes per call.
void BM_OperatorOracleDense(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  const std::size_t m = q - 2;  // system register below 2 precision wires
  Statevector sv(q);
  Rng rng(2024);
  std::vector<Amplitude> amplitudes(sv.dimension());
  for (Amplitude& a : amplitudes) a = {rng.normal(), rng.normal()};
  sv.set_amplitudes(std::move(amplitudes));
  sv.normalize();
  const SparseExpOperator op(tridiagonal_hamiltonian(m), 1.0, 0.0, 4.0);
  std::vector<std::size_t> targets;
  for (std::size_t w = 2; w < q; ++w) targets.push_back(w);
  for (auto _ : state) {
    sv.apply_operator(op, targets, {0});
    benchmark::DoNotOptimize(sv.amplitudes().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OperatorOracleDense)->DenseRange(12, 14, 2);

/// One controlled 27-term oracle on 128-amplitude blocks of a random
/// q-qubit state (control wire 0, system on the last 7 wires): 2^(q−8)
/// blocks, no two equal.
void BM_OperatorOracleDistinct(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSystem = 7;
  Statevector sv(q);
  Rng rng(2024);
  std::vector<Amplitude> amplitudes(sv.dimension());
  for (Amplitude& a : amplitudes) a = {rng.normal(), rng.normal()};
  sv.set_amplitudes(std::move(amplitudes));
  sv.normalize();
  const SparseExpOperator op(tridiagonal_hamiltonian(kSystem), 3.5, 0.0, 4.0);
  std::vector<std::size_t> targets;
  for (std::size_t w = q - kSystem; w < q; ++w) targets.push_back(w);
  for (auto _ : state) {
    sv.apply_operator(op, targets, {0});
    benchmark::DoNotOptimize(sv.amplitudes().data());
    benchmark::ClobberMemory();
  }
  state.counters["blocks"] =
      static_cast<double>(std::size_t{1} << (q - 1 - kSystem));
  state.counters["terms"] = static_cast<double>(op.num_terms());
}
BENCHMARK(BM_OperatorOracleDistinct)->DenseRange(13, 17, 2)->UseRealTime();

/// The purified estimator's oracle ladder at t = 3 on an n-qubit register
/// (q = (n − 3)/2 system and ancilla wires): controlled e^{i·p·H} with
/// p = 4, 2, 1 on precision wires 0, 1, 2, H = (0.95·2π/4)·A for the
/// tridiagonal A of spectrum [0, 4].  The purification prep and H wall
/// run untimed before every iteration.
void BM_PurifiedQpeOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPrecision = 3;
  const std::size_t q = (n - kPrecision) / 2;
  std::vector<std::size_t> systems, ancillas;
  for (std::size_t i = 0; i < q; ++i) {
    systems.push_back(kPrecision + i);
    ancillas.push_back(kPrecision + q + i);
  }
  Circuit prep(n);
  append_mixed_state_preparation(prep, ancillas, systems);
  for (std::size_t w = 0; w < kPrecision; ++w) prep.h(w);
  const auto hamiltonian =
      std::make_shared<const SparseMatrix>(tridiagonal_hamiltonian(q));
  const double scale = 0.95 * 2.0 * 3.141592653589793 / 4.0;
  Circuit ladder(n);
  for (std::size_t j = 0; j < kPrecision; ++j) {
    const double power =
        static_cast<double>(std::size_t{1} << (kPrecision - 1 - j));
    ladder.operator_gate(std::make_shared<const SparseExpOperator>(
                             hamiltonian, power * scale, 0.0, 4.0),
                         systems, {j});
  }
  const ExecutionPlan prep_plan = compile_circuit(prep, CompilerOptions{});
  const ExecutionPlan ladder_plan = compile_circuit(ladder, CompilerOptions{});
  Statevector sv(n);
  for (auto _ : state) {
    state.PauseTiming();
    sv.set_basis_state(0);
    sv.apply_plan(prep_plan);
    state.ResumeTiming();
    sv.apply_plan(ladder_plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PurifiedQpeOracle)->DenseRange(15, 17, 2)->UseRealTime();

/// The purified estimator's register, t + q system + q ancilla wires at
/// t = 3: H and CNOT onto its system partner for each ancilla (controls on
/// bits 0 to q − 1), then H on the three precision wires.
ExecutionPlan purification_prep_plan(std::size_t n) {
  constexpr std::size_t kPrecision = 3;
  const std::size_t q = (n - kPrecision) / 2;
  Circuit circuit(n);
  std::vector<std::size_t> systems, ancillas;
  for (std::size_t i = 0; i < q; ++i) {
    systems.push_back(kPrecision + i);
    ancillas.push_back(kPrecision + q + i);
  }
  append_mixed_state_preparation(circuit, ancillas, systems);
  for (std::size_t w = 0; w < kPrecision; ++w) circuit.h(w);
  return compile_circuit(circuit, CompilerOptions{});
}

/// The swept reference: the prep plan re-applied to the evolving state.
/// Only a basis state folds, so after the first iteration every op sweeps
/// the whole register.
void BM_PurificationPrep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ExecutionPlan plan = purification_prep_plan(n);
  Statevector sv(n);
  for (auto _ : state) {
    sv.apply_plan(plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.ops().size()) *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_PurificationPrep)->DenseRange(15, 19, 2);

/// The estimator's sequence: set_basis_state(0), then the prep plan, which
/// folds onto the support of |0…0⟩ (2^(3+q) of the 2^n amplitudes).  The
/// reset refills the register, since the previous iteration's plan left
/// the state unmarked.
void BM_PurificationPrepFromBasis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ExecutionPlan plan = purification_prep_plan(n);
  Statevector sv(n);
  for (auto _ : state) {
    sv.set_basis_state(0);
    sv.apply_plan(plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PurificationPrepFromBasis)->DenseRange(15, 19, 2);

void BM_HadamardGate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Statevector sv(n);
  std::size_t target = 0;
  for (auto _ : state) {
    sv.apply_single_qubit(gates::H(), target);
    target = (target + 1) % n;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_HadamardGate)->DenseRange(8, 22, 2);

void BM_ControlledGate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Statevector sv(n);
  for (std::size_t q = 0; q < n; ++q) sv.apply_single_qubit(gates::H(), q);
  for (auto _ : state) {
    sv.apply_single_qubit(gates::X(), n - 1, {0});
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1ULL << n));
}
BENCHMARK(BM_ControlledGate)->DenseRange(8, 20, 4);

void BM_DenseThreeQubitUnitary(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Statevector sv(n);
  const auto u = ComplexMatrix::identity(8);
  for (auto _ : state) {
    sv.apply_unitary(u, {0, 1, 2});
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_DenseThreeQubitUnitary)->DenseRange(8, 18, 2);

void BM_MarginalProbabilities(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Statevector sv(n);
  for (std::size_t q = 0; q < n; ++q) sv.apply_single_qubit(gates::H(), q);
  const std::vector<std::size_t> measured{0, 1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.marginal_probabilities(measured));
  }
}
BENCHMARK(BM_MarginalProbabilities)->DenseRange(10, 20, 5);

void BM_SampleShots(benchmark::State& state) {
  const auto shots = static_cast<std::size_t>(state.range(0));
  Statevector sv(10);
  for (std::size_t q = 0; q < 10; ++q) sv.apply_single_qubit(gates::H(), q);
  Rng rng(1);
  const std::vector<std::size_t> measured{0, 1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.sample_counts(measured, shots, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shots));
}
BENCHMARK(BM_SampleShots)->RangeMultiplier(10)->Range(100, 1000000);

void BM_BellCircuitEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Circuit circuit(n);
  circuit.h(0);
  for (std::size_t q = 1; q < n; ++q) circuit.cnot(q - 1, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_circuit(circuit).norm_squared());
  }
}
BENCHMARK(BM_BellCircuitEndToEnd)->DenseRange(8, 20, 4);

}  // namespace
