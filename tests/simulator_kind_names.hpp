/// \file simulator_kind_names.hpp
/// \brief One naming rule for the tests parameterized over simulation
/// engines.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "quantum/backend.hpp"

namespace qtda::testing {

/// Name suffix of an engine-parameterized test: the engine's printable name
/// with dashes as underscores ("density_matrix"), since gtest names admit
/// only letters, digits and underscores.
inline std::string simulator_kind_test_name(
    const ::testing::TestParamInfo<SimulatorKind>& info) {
  std::string name = simulator_kind_name(info.param);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name;
}

}  // namespace qtda::testing
