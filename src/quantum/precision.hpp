/// \file precision.hpp
/// \brief Amplitude precision selection for the simulation spine.
///
/// Every engine (Statevector, DensityMatrix) is a template over the real
/// scalar of its amplitudes; this enum is the runtime handle the factory
/// and the estimator options use to pick an instantiation.  complex128
/// (double) is the default and the reference; complex64 (float) halves
/// memory traffic — the lever identified by the mixed-precision exemplars —
/// at ~1e-7 relative amplitude error, which the precision-tolerance tests
/// bound per backend.
///
/// The `QTDA_PRECISION` environment variable overrides the requested
/// precision in make_simulator (values: "float64"/"float32"); malformed
/// values fail fast naming the variable, matching QTDA_SIMULATOR.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "common/error.hpp"

namespace qtda {

/// Real scalar of the complex amplitudes an engine stores.
enum class Precision {
  kFloat64,  ///< std::complex<double> — the reference arithmetic
  kFloat32,  ///< std::complex<float> — half the bandwidth, ~1e-7 accuracy
};

/// Printable name ("float64", "float32").
inline std::string precision_name(Precision precision) {
  switch (precision) {
    case Precision::kFloat64: return "float64";
    case Precision::kFloat32: return "float32";
  }
  return "?";
}

/// Inverse of precision_name; throws listing the valid names.
inline Precision precision_from_name(const std::string& name) {
  if (name == "float64") return Precision::kFloat64;
  if (name == "float32") return Precision::kFloat32;
  QTDA_REQUIRE(false, "unknown precision \"" << name
                                             << "\" (valid: float64, float32)");
  return Precision::kFloat64;
}

/// The Precision tag of a template instantiation's real scalar — the bridge
/// from compile-time Real to the runtime enum (used by the backends'
/// precision() accessor).
template <typename Real>
constexpr Precision precision_of();

template <>
constexpr Precision precision_of<double>() {
  return Precision::kFloat64;
}

template <>
constexpr Precision precision_of<float>() {
  return Precision::kFloat32;
}

/// Parses the QTDA_PRECISION override: unset/empty → nullopt (use the
/// caller's requested precision).  Throws an Error naming the variable on
/// any other value, mirroring the QTDA_SIMULATOR convention.
inline std::optional<Precision> precision_from_env() {
  const char* value = std::getenv("QTDA_PRECISION");
  if (value == nullptr || *value == '\0') return std::nullopt;
  const std::string name(value);
  if (name == "float64") return Precision::kFloat64;
  if (name == "float32") return Precision::kFloat32;
  QTDA_REQUIRE(false, "QTDA_PRECISION=\""
                          << name
                          << "\" is not a valid precision (valid: float64, "
                             "float32)");
  return std::nullopt;
}

}  // namespace qtda
