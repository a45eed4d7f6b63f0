/// \file bit_identity_scenarios.hpp
/// \brief Deterministic simulation scenarios hashed for the bit-identity
/// guarantee.
///
/// Each scenario runs a fixed circuit/plan/operator workload through one of
/// the engines and fingerprints the resulting amplitudes (FNV-1a over the
/// raw IEEE-754 bytes).  The committed expectations in test_bit_identity.cpp
/// pin the scalar (`QTDA_SIMD=0`) double-precision arithmetic bit for bit,
/// and every SIMD level must reproduce it.
///
/// Scenarios only use public engine APIs and avoid every source of
/// nondeterminism except seeded Rng streams.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "circuit_plans.hpp"
#include "common/random.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/mixed_state.hpp"
#include "quantum/noise.hpp"
#include "quantum/qft.hpp"
#include "quantum/statevector.hpp"

namespace qtda {
namespace testing {

/// 64-bit FNV-1a over a byte range.
inline void fnv1a_bytes(const void* data, std::size_t size,
                        std::uint64_t& hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
}

inline std::uint64_t fingerprint_amplitudes(
    const std::vector<Amplitude>& amplitudes) {
  std::uint64_t hash = 1469598103934665603ULL;
  fnv1a_bytes(amplitudes.data(), amplitudes.size() * sizeof(Amplitude), hash);
  return hash;
}

inline std::uint64_t fingerprint_doubles(const std::vector<double>& values) {
  std::uint64_t hash = 1469598103934665603ULL;
  fnv1a_bytes(values.data(), values.size() * sizeof(double), hash);
  return hash;
}

/// A mixed workload: Hadamard wall, entanglers, rotations, and the
/// controlled-phase ladder that the compiler fuses into wide diagonals.
inline Circuit bit_identity_circuit(std::size_t n) {
  Circuit c(n);
  for (std::size_t q = 0; q < n; ++q) c.h(q);
  c.cnot(0, 1);
  c.cz(1, 2);
  c.t(2);
  c.s(3 % n);
  c.ry(2, 0.7);
  c.rx(n - 2, -1.1);
  c.rz(4 % n, 0.3);
  for (std::size_t j = 0; j + 1 < n; ++j)
    c.controlled_phase(j, n - 1, kPi / static_cast<double>(2 + j));
  c.cnot(n - 2, n - 1);
  c.phase(0, 0.25);
  c.swap(1, n - 2);
  return c;
}

/// e^{iγ}·Rz(α)·Ry(β)·Rz(δ) at general angles: all four entries have
/// nonzero real and imaginary parts, so every product term of a complex
/// multiply is live and a fused multiply-add anywhere changes the rounding
/// (H and X, with real 0/±1 entries, cannot show it).
inline ComplexMatrix general_rotation(double alpha, double beta, double delta,
                                      double gamma) {
  const auto phase = [](double angle) {
    return Amplitude(std::cos(angle), std::sin(angle));
  };
  const double c = std::cos(beta / 2.0);
  const double s = std::sin(beta / 2.0);
  ComplexMatrix u(2, 2);
  u(0, 0) = phase(gamma - (alpha + delta) / 2.0) * c;
  u(0, 1) = -phase(gamma - (alpha - delta) / 2.0) * s;
  u(1, 0) = phase(gamma + (alpha - delta) / 2.0) * s;
  u(1, 1) = phase(gamma + (alpha + delta) / 2.0) * c;
  return u;
}

/// The estimator's purified QPE shape on t = 3 precision, q = 5 system and
/// q = 5 ancilla wires (13 qubits): the purification prep (H on each
/// ancilla, CNOT onto its system partner, so the controls sit on bits 0–4),
/// the precision Hadamards, general-angle controlled rotations with targets
/// and controls on bits 0 and 1, controlled phases standing in for the
/// oracle, and the inverse QFT.
inline Circuit purified_qpe_circuit() {
  constexpr std::size_t kT = 3, kQ = 5;
  Circuit c(kT + 2 * kQ);
  std::vector<std::size_t> systems, ancillas;
  for (std::size_t i = 0; i < kQ; ++i) {
    systems.push_back(kT + i);
    ancillas.push_back(kT + kQ + i);
  }
  append_mixed_state_preparation(c, ancillas, systems);
  for (std::size_t j = 0; j < kT; ++j) c.h(j);
  const ComplexMatrix r = general_rotation(0.9, 1.3, -0.55, 0.37);
  const ComplexMatrix r2 = general_rotation(-1.7, 0.45, 2.1, -0.8);
  c.unitary(r, {12}, {11});     // target bit 0, control bit 1
  c.unitary(r2, {11}, {12});    // target bit 1, control bit 0
  c.unitary(r, {5}, {12, 11});  // controls on bits 0 and 1
  c.unitary(r2, {12}, {0});     // target bit 0, control on the top wire
  c.unitary(r, {11}, {1, 4});   // target bit 1, high controls
  c.unitary(r2, {4}, {2, 12});  // precision control and bit 0
  c.unitary(r, {12});           // uncontrolled on bit 0
  c.unitary(r2, {8}, {10});     // target and control above bit 1
  for (std::size_t j = 0; j < kT; ++j)
    c.controlled_phase(j, kT + j, 0.7 + 0.31 * static_cast<double>(j));
  append_inverse_qft(c, {0, 1, 2});
  return c;
}

/// Path-graph Laplacian of dimension \p dim (symmetric, spectrum in [0, 4]).
inline SparseMatrix bit_identity_laplacian(std::size_t dim) {
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

/// A symmetric, diagonally dominant 32×32 matrix with uneven rows: row 0 is
/// a hub with 13 nonzeros, rows 17 and 18 hold only their diagonal, and the
/// others carry 2, 3, 6 or 7.  Gershgorin puts its spectrum inside
/// [0.3, 4.3], so Chebyshev bounds [0, 5] hold it with c = 2.5 and
/// 1/h = 0.4 — neither a power of two, so regrouping the recurrence's
/// products changes the rounding.
inline SparseMatrix bit_identity_uneven_matrix() {
  constexpr std::size_t kDim = 32;
  std::vector<Triplet> triplets;
  std::vector<double> diagonal(kDim, 0.0);
  const auto edge = [&](std::size_t i, std::size_t j) {
    const double w = 0.1 + 0.01 * static_cast<double>((i + j) % 7);
    triplets.push_back({i, j, -w});
    triplets.push_back({j, i, -w});
    diagonal[i] += w;
    diagonal[j] += w;
  };
  for (std::size_t j = 1; j <= 12; ++j) edge(0, j);      // hub
  for (std::size_t i = 13; i < 16; ++i) edge(i, i + 1);  // path 13–16
  for (std::size_t j = 20; j <= 25; ++j) edge(19, j);    // fan around 19
  for (std::size_t i = 26; i < kDim; ++i)                // 6-clique
    for (std::size_t j = i + 1; j < kDim; ++j) edge(i, j);
  for (std::size_t i = 0; i < kDim; ++i)
    triplets.push_back(
        {i, i, diagonal[i] + 0.3 + 0.05 * static_cast<double>(i % 3)});
  return SparseMatrix::from_triplets(kDim, kDim, std::move(triplets));
}

struct BitIdentityFingerprint {
  std::string name;
  std::uint64_t hash;
};

/// Runs every scenario and returns (name, fingerprint) pairs in a fixed
/// order.
inline std::vector<BitIdentityFingerprint> bit_identity_fingerprints() {
  std::vector<BitIdentityFingerprint> out;
  const Circuit c10 = bit_identity_circuit(10);

  {  // Dense engine, gate-by-gate arithmetic (an unfused plan).
    Statevector psi(10);
    psi.set_basis_state(3);
    psi.apply_plan(unfused_plan(c10));
    out.push_back({"dense_circuit", fingerprint_amplitudes(psi.amplitudes())});
    out.push_back(
        {"dense_marginal",
         fingerprint_doubles(psi.marginal_probabilities({0, 3, 5, 9}))});
  }
  {  // Dense engine, fused plan (default compiler options).
    Statevector psi(10);
    psi.set_basis_state(3);
    const ExecutionPlan plan = compile_circuit(c10, CompilerOptions{});
    psi.apply_plan(plan);
    out.push_back(
        {"dense_plan_fused", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Dense engine, unfused plan from explicit options (QTDA_FUSE=0).
    Statevector psi(10);
    psi.set_basis_state(3);
    CompilerOptions options;
    options.fuse = false;
    psi.apply_plan(compile_circuit(c10, options));
    out.push_back(
        {"dense_plan_unfused", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Exact density-matrix channel evolution.
    DensityMatrix rho(5);
    rho.apply_plan_with_noise(noise_slot_plan(bit_identity_circuit(5)),
                              NoiseModel{0.05, 0.08});
    std::vector<Amplitude> elements;
    elements.reserve(32 * 32);
    for (std::uint64_t r = 0; r < 32; ++r)
      for (std::uint64_t col = 0; col < 32; ++col)
        elements.push_back(rho.element(r, col));
    out.push_back({"density_noisy", fingerprint_amplitudes(elements)});
  }
  {  // One stochastic trajectory (seeded): single-qubit Pauli kernels.
    Rng rng(42);
    const Statevector psi = run_noisy_trajectory(
        noise_slot_plan(bit_identity_circuit(8)), NoiseModel{0.1, 0.2}, rng);
    out.push_back(
        {"trajectory_seed42", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Matrix-free Chebyshev oracle: CSR matvec + expm recurrence, both the
     // direct path and controlled through the block gather/scatter.
    Statevector psi(8);
    psi.set_basis_state(1);
    psi.apply_plan(unfused_plan(bit_identity_circuit(8)));
    const SparseExpOperator op(bit_identity_laplacian(32), 0.9, 0.0, 4.0);
    psi.apply_operator(op, {3, 4, 5, 6, 7});
    psi.apply_operator(op, {2, 3, 5, 6, 7}, {0});
    out.push_back(
        {"dense_operator", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // The same oracle walk on uneven rows with non-power-of-two c and 1/h.
    Statevector psi(8);
    psi.set_basis_state(1);
    psi.apply_plan(unfused_plan(bit_identity_circuit(8)));
    const SparseExpOperator op(bit_identity_uneven_matrix(), 0.9, 0.0, 5.0);
    psi.apply_operator(op, {3, 4, 5, 6, 7});
    psi.apply_operator(op, {2, 3, 5, 6, 7}, {0});
    out.push_back(
        {"dense_operator_uneven", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Purified QPE shape on 13 qubits, gate by gate and as a fused plan.
    const Circuit c = purified_qpe_circuit();
    Statevector walked(c.num_qubits());
    walked.apply_plan(unfused_plan(c));
    out.push_back(
        {"dense_purified_qpe", fingerprint_amplitudes(walked.amplitudes())});
    Statevector fused(c.num_qubits());
    fused.apply_plan(compile_circuit(c, CompilerOptions{}));
    out.push_back({"dense_purified_qpe_fused",
                   fingerprint_amplitudes(fused.amplitudes())});
  }
  {  // Large state (2^18 amplitudes): crosses the parallel-threshold branch
     // of the dense kernels.
    Statevector psi(18);
    Circuit c(18);
    for (std::size_t q = 0; q < 18; ++q) c.h(q);
    for (std::size_t q = 0; q + 1 < 18; q += 2) c.cnot(q, q + 1);
    c.rz(17, 0.61);
    c.controlled_phase(0, 17, 0.413);
    c.ry(9, -0.2);
    psi.apply_plan(unfused_plan(c));
    out.push_back({"dense_large", fingerprint_amplitudes(psi.amplitudes())});
    out.push_back({"dense_large_marginal",
                   fingerprint_doubles(psi.marginal_probabilities(
                       {0, 1, 2, 8, 16, 17}))});
  }
  return out;
}

}  // namespace testing
}  // namespace qtda
