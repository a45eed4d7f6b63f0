/// \file metrics_delta.hpp
/// \brief Test-only readers of counter rises between two metrics reports.
///
/// The telemetry registry is process-wide and several servers run in one
/// test process, so a test states what one server counted as the
/// difference between a report taken before and one taken after.
#pragma once

#include <cstdint>
#include <string>

#include "serve/metrics.hpp"

namespace qtda::testing {

/// How much counter \p name rose from \p before to \p after (a name absent
/// from a report reads 0).
inline std::uint64_t counter_delta(const MetricsReport& before,
                                   const MetricsReport& after,
                                   const std::string& name) {
  const auto value = [&name](const MetricsReport& report) -> std::uint64_t {
    const auto it = report.counters.find(name);
    return it == report.counters.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

/// The rise of all `serve.errors.<code>` counters together.
inline std::uint64_t error_delta(const MetricsReport& before,
                                 const MetricsReport& after) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : after.counters)
    if (name.rfind("serve.errors.", 0) == 0)
      total += counter_delta(before, after, name);
  return total;
}

}  // namespace qtda::testing
