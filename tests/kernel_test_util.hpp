/// \file kernel_test_util.hpp
/// \brief Helpers shared by the SIMD kernel tests: the dispatch levels this
/// CPU runs, byte-for-byte comparison and random amplitude vectors.
#pragma once

#include <complex>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/random.hpp"

namespace qtda {
namespace testing {

/// Every dispatch level up to the probed one, scalar first.
inline std::vector<SimdLevel> levels_up_to_detected() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (level <= detected_simd_level()) levels.push_back(level);
  return levels;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Uniform entries, with about one in eight set to (+0, −0): a product
/// with a zero is a signed zero, and only a sum started from +0 (as the
/// scalar loops start it) turns a leading −0 into +0.
template <typename R>
std::vector<std::complex<R>> random_vector(std::size_t n, Rng& rng) {
  std::vector<std::complex<R>> v(n);
  for (auto& z : v) {
    z = {static_cast<R>(rng.uniform(-1.0, 1.0)),
         static_cast<R>(rng.uniform(-1.0, 1.0))};
    if (rng.uniform_index(8) == 0) z = {R{0}, -R{0}};
  }
  return v;
}

}  // namespace testing
}  // namespace qtda
