/// \file statistical_checks.hpp
/// \brief Test-only helpers that split a shot-based assertion in two: the
/// probability the shots are drawn from, read deterministically from the
/// compiled plan, and an exact binomial acceptance interval for the count
/// at a stated false-failure rate.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/betti_estimator.hpp"
#include "quantum/statevector.hpp"

namespace qtda::testing {

/// Shot counts a correct sampler produces: [lo, hi], both inclusive.
struct CountInterval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// The central interval of Binomial(\p n, \p p): P(X < lo) ≤ α/2 and
/// P(X > hi) ≤ α/2 for α = \p false_failure_rate, so a sampler that really
/// draws from p lands outside it with probability at most α.  Exact tail
/// sums of the probability mass function (log-space terms).
inline CountInterval binomial_acceptance_interval(std::uint64_t n, double p,
                                                  double false_failure_rate) {
  if (!(p >= 0.0 && p <= 1.0) || !(false_failure_rate > 0.0))
    throw std::invalid_argument("binomial_acceptance_interval: bad p or rate");
  if (p == 0.0) return {0, 0};
  if (p == 1.0) return {n, n};
  const double nd = static_cast<double>(n);
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  const auto pmf = [&](std::uint64_t k) {
    const double kd = static_cast<double>(k);
    return std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                    std::lgamma(nd - kd + 1.0) + kd * log_p +
                    (nd - kd) * log_q);
  };
  const double tail = false_failure_rate / 2.0;
  CountInterval interval{0, n};
  double below = pmf(0);  // P(X ≤ lo)
  while (below <= tail && interval.lo < n) below += pmf(++interval.lo);
  double above = pmf(n);  // P(X ≥ hi)
  while (above <= tail && interval.hi > 0) above += pmf(--interval.hi);
  return interval;
}

/// p(0) of a compiled purification estimate, read from its plan's
/// statevector marginal on the precision register: the probability the
/// estimate's shots are drawn from, oracle and Trotter bias included.
inline double plan_zero_probability(const CompiledEstimate& compiled) {
  if (compiled.plan == nullptr || !compiled.purify)
    throw std::invalid_argument(
        "plan_zero_probability needs a purification circuit plan");
  Statevector state(compiled.total_qubits);
  state.apply_plan(*compiled.plan);
  return state.marginal_probabilities(compiled.layout.precision_wires())[0];
}

}  // namespace qtda::testing
