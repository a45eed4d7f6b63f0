// Tests for quantum/qft.hpp.
#include "quantum/qft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit_plans.hpp"
#include "common/random.hpp"
#include "quantum/executor.hpp"
#include "quantum/statevector.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

using testing::unfused_plan;

/// Reference DFT amplitude ⟨y|QFT|x⟩ = e^{2πi x y / N} / √N.
Amplitude dft_entry(std::uint64_t y, std::uint64_t x, std::uint64_t n) {
  const double angle =
      kTwoPi * static_cast<double>(x) * static_cast<double>(y) /
      static_cast<double>(n);
  return Amplitude{std::cos(angle), std::sin(angle)} /
         std::sqrt(static_cast<double>(n));
}

class QftMatchesDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QftMatchesDft, OnEveryBasisState) {
  const std::size_t t = GetParam();
  const std::uint64_t dim = 1ULL << t;
  std::vector<std::size_t> qubits(t);
  for (std::size_t i = 0; i < t; ++i) qubits[i] = i;
  for (std::uint64_t x = 0; x < dim; ++x) {
    Circuit c(t);
    append_qft(c, qubits);
    Statevector s(t);
    s.set_basis_state(x);
    s.apply_plan(unfused_plan(c));
    for (std::uint64_t y = 0; y < dim; ++y) {
      const auto expected = dft_entry(y, x, dim);
      EXPECT_NEAR(std::abs(s.amplitude(y) - expected), 0.0, 1e-10)
          << "t=" << t << " x=" << x << " y=" << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QftMatchesDft, ::testing::Values(1, 2, 3, 4));

TEST(Qft, InverseComposesToIdentity) {
  const std::size_t t = 4;
  std::vector<std::size_t> qubits(t);
  for (std::size_t i = 0; i < t; ++i) qubits[i] = i;
  Circuit c(t);
  append_qft(c, qubits);
  append_inverse_qft(c, qubits);

  Rng rng(3);
  std::vector<Amplitude> amps(1ULL << t);
  for (auto& a : amps) a = {rng.normal(), rng.normal()};
  Statevector s(t);
  s.set_amplitudes(amps);
  s.normalize();
  const auto input = s.amplitudes();
  s.apply_plan(unfused_plan(c));
  for (std::size_t i = 0; i < input.size(); ++i)
    EXPECT_NEAR(std::abs(s.amplitudes()[i] - input[i]), 0.0, 1e-10);
}

TEST(Qft, WorksOnQubitSubset) {
  // QFT over qubits {1, 2} of a 3-qubit register leaves qubit 0 alone.
  Circuit c(3);
  append_qft(c, {1, 2});
  Statevector s(3);
  s.set_basis_state(0b100);  // qubit 0 = 1, subset in |00⟩
  s.apply_plan(unfused_plan(c));
  // QFT|00⟩ = uniform superposition on the subset; qubit 0 stays 1.
  for (std::uint64_t sub = 0; sub < 4; ++sub) {
    EXPECT_NEAR(s.probability(0b100 | sub), 0.25, 1e-12);
    EXPECT_NEAR(s.probability(sub), 0.0, 1e-12);
  }
}

TEST(Qft, UniformSuperpositionMapsToZero) {
  // QFT† of the uniform superposition is |0⟩ — the heart of QPE readout.
  const std::size_t t = 3;
  Circuit c(t);
  for (std::size_t q = 0; q < t; ++q) c.h(q);
  append_inverse_qft(c, {0, 1, 2});
  const auto s = run_circuit(c);
  EXPECT_NEAR(s.probability(0), 1.0, 1e-10);
}

}  // namespace
}  // namespace qtda
