// Tests for quantum/noise.hpp and the noisy executor.
#include "quantum/noise.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "circuit_plans.hpp"
#include "common/cancel.hpp"
#include "common/random.hpp"
#include "quantum/executor.hpp"
#include "quantum/gates.hpp"

namespace qtda {
namespace {

using testing::noise_slot_plan;

TEST(NoiseModel, NoiselessPredicate) {
  EXPECT_TRUE(NoiseModel{}.is_noiseless());
  EXPECT_FALSE((NoiseModel{0.01, 0.0}).is_noiseless());
  EXPECT_FALSE((NoiseModel{0.0, 0.05}).is_noiseless());
}

TEST(Depolarizing, ZeroProbabilityIsNoop) {
  Statevector s(1);
  Rng rng(1);
  maybe_apply_depolarizing(s, 0, 0.0, rng);
  EXPECT_DOUBLE_EQ(s.probability(0), 1.0);
}

TEST(Depolarizing, CertainErrorChangesStateInPauliBasis) {
  // With p = 1 on |0⟩, X and Y flip the state (2/3 of draws), Z leaves the
  // probability untouched — so over many trials the flip rate is ≈ 2/3.
  Rng rng(2);
  int flips = 0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    Statevector s(1);
    maybe_apply_depolarizing(s, 0, 1.0, rng);
    if (s.probability(1) > 0.5) ++flips;
  }
  EXPECT_NEAR(flips / static_cast<double>(trials), 2.0 / 3.0, 0.05);
}

TEST(NoisyTrajectory, NoiselessModelReproducesIdealState) {
  Circuit c(2);
  c.h(0);
  c.cnot(0, 1);
  Rng rng(3);
  const auto noisy =
      run_noisy_trajectory(noise_slot_plan(c), NoiseModel{}, rng);
  const auto ideal = run_circuit(c);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(noisy.amplitude(i) - ideal.amplitude(i)), 0.0,
                1e-12);
}

TEST(NoisySampling, NoiseDegradesBellCorrelations) {
  // Ideal Bell state: outcomes 00 and 11 only.  Depolarizing noise leaks
  // probability into 01/10; more noise leaks more.
  Circuit c(2);
  c.h(0);
  c.cnot(0, 1);
  const std::size_t shots = 2000;

  const auto leakage = [&](double p) {
    Rng rng(5);
    NoiseModel noise{p, p};
    const auto counts = sample_circuit_noisy(c, {0, 1}, shots, noise, rng);
    return static_cast<double>(counts[1] + counts[2]) /
           static_cast<double>(shots);
  };
  EXPECT_DOUBLE_EQ(leakage(0.0), 0.0);
  const double low = leakage(0.02);
  const double high = leakage(0.3);
  EXPECT_GT(high, low);
  EXPECT_GT(high, 0.05);
}

TEST(NoisySampling, CountsSumToShots) {
  Circuit c(2);
  c.h(0);
  Rng rng(7);
  const auto counts =
      sample_circuit_noisy(c, {0, 1}, 500, NoiseModel{0.1, 0.1}, rng);
  std::uint64_t total = 0;
  for (auto v : counts) total += v;
  EXPECT_EQ(total, 500u);
}

TEST(NoisyTrajectory, StateStaysNormalized) {
  Circuit c(3);
  c.h(0);
  c.cnot(0, 1);
  c.cnot(1, 2);
  Rng rng(11);
  const ExecutionPlan plan = noise_slot_plan(c);
  for (int i = 0; i < 20; ++i) {
    const auto state = run_noisy_trajectory(plan, NoiseModel{0.2, 0.2}, rng);
    EXPECT_NEAR(state.norm_squared(), 1.0, 1e-10);
  }
}

TEST(NoisyTrajectory, StopsAtAnExpiredDeadline) {
  Circuit c(2);
  c.h(0);
  c.cnot(0, 1);
  const ExecutionPlan plan = noise_slot_plan(c);
  Rng rng(13);
  const cancel::ScopedDeadline expired(std::chrono::steady_clock::now() -
                                       std::chrono::milliseconds(1));
  EXPECT_THROW(run_noisy_trajectory(plan, NoiseModel{0.1, 0.1}, rng),
               CancelledError);
}

}  // namespace
}  // namespace qtda
