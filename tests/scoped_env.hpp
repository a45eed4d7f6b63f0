/// \file scoped_env.hpp
/// \brief Test-only RAII guard for the simulation environment overrides
/// (QTDA_SIMULATOR / QTDA_FUSE / QTDA_PRECISION / QTDA_SIMD).
///
/// Tests that pin factory or compiler behavior must neutralize the
/// overrides the CI legs set process-wide, and tests that exercise an
/// override must not strip it from the rest of a directly-invoked
/// (non-ctest) run — both save the incoming values and restore them on
/// destruction.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qtda::testing {

class ScopedSimulatorEnv {
 public:
  /// Saves the current override values (restored on destruction).
  ScopedSimulatorEnv() {
    for (const char* name : kNames) {
      const char* value = std::getenv(name);
      saved_.emplace_back(name, value == nullptr
                                    ? std::optional<std::string>{}
                                    : std::optional<std::string>{value});
    }
  }

  ~ScopedSimulatorEnv() {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        setenv(name, value->c_str(), 1);
      } else {
        unsetenv(name);
      }
    }
  }

  ScopedSimulatorEnv(const ScopedSimulatorEnv&) = delete;
  ScopedSimulatorEnv& operator=(const ScopedSimulatorEnv&) = delete;

  /// Removes the engine/compiler override variables for the remainder of
  /// the scope.  QTDA_PRECISION and QTDA_SIMD are deliberately left alone:
  /// the float32 and scalar-SIMD CI legs set them process-wide to route the
  /// whole suite through those configurations, and a test that cleared them
  /// would silently fall back to the double/SIMD engines it meant to cover.
  /// They are still saved/restored, so tests that *set* them stay hermetic.
  static void clear() {
    for (const char* name : kClearedNames) unsetenv(name);
  }

 private:
  static constexpr const char* kClearedNames[] = {"QTDA_SIMULATOR",
                                                  "QTDA_FUSE"};
  static constexpr const char* kNames[] = {"QTDA_SIMULATOR", "QTDA_FUSE",
                                           "QTDA_PRECISION", "QTDA_SIMD"};
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

}  // namespace qtda::testing
