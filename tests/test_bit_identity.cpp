/// \file test_bit_identity.cpp
/// \brief Pins the scalar double-precision arithmetic, bit for bit.
///
/// Most expectations below were captured from the tree before the vector
/// kernels and the precision template landed, with the engines running their
/// plain scalar loops; `dense_plan_fused` was re-captured when the fusion
/// cost model went down to one calibration for every dispatch level,
/// `dense_operator_uneven` was captured at `QTDA_SIMD=0` when it was added,
/// and the two `dense_purified_qpe` pins were captured at `QTDA_SIMD=0` on
/// the tree before the enumerated single-qubit and bit-0/1 kernels landed.
/// Every vector kernel is bit-identical to its scalar branch by construction
/// (same products, same rounding, the Chebyshev oracle's CSR sums included)
/// and every level builds the same fused plans, so every scenario reproduces
/// these bytes at every SIMD level — the CI scalar leg and the default build
/// both assert all of them.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "bit_identity_scenarios.hpp"
#include "common/cpu_features.hpp"

namespace qtda {
namespace {

using testing::bit_identity_fingerprints;
using testing::BitIdentityFingerprint;

// Scalar double arithmetic.
const std::map<std::string, std::uint64_t>& golden_fingerprints() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"dense_circuit", 0x2b45dc7ffcab148cULL},
      {"dense_marginal", 0x14f273652935766fULL},
      {"dense_plan_fused", 0xb9da3fea1ffcdc42ULL},
      {"dense_plan_unfused", 0x2b45dc7ffcab148cULL},
      {"density_noisy", 0x8a395d560f45e781ULL},
      {"trajectory_seed42", 0x5fe0a203105a2182ULL},
      {"dense_operator", 0xa82f3991137a8210ULL},
      {"dense_operator_uneven", 0x299f1026cfb31066ULL},
      {"dense_purified_qpe", 0xc03e3b87c2149065ULL},
      {"dense_purified_qpe_fused", 0x0aa9aea6f744b883ULL},
      {"dense_large", 0x07de12e830060383ULL},
      {"dense_large_marginal", 0x5e9c457708de6583ULL},
  };
  return golden;
}

TEST(BitIdentity, ScalarDoubleResultsMatchHistoricalFingerprints) {
  const SimdLevel level = active_simd_level();
  const std::vector<BitIdentityFingerprint> actual =
      bit_identity_fingerprints();
  ASSERT_EQ(actual.size(), golden_fingerprints().size());
  for (const BitIdentityFingerprint& fp : actual) {
    const auto it = golden_fingerprints().find(fp.name);
    ASSERT_NE(it, golden_fingerprints().end())
        << "scenario \"" << fp.name << "\" has no committed expectation";
    EXPECT_EQ(fp.hash, it->second)
        << "scenario \"" << fp.name
        << "\" no longer reproduces the pinned bytes at SIMD level "
        << simd_level_name(level);
  }
}

// The unfused plan replays exactly the gate-by-gate arithmetic, so the two
// fingerprints share one value.  Assert the coincidence itself at every SIMD
// level — it must hold for the vector kernels too.
TEST(BitIdentity, EnginesAgreeByteForByteAtEverySimdLevel) {
  const std::vector<BitIdentityFingerprint> actual =
      bit_identity_fingerprints();
  std::map<std::string, std::uint64_t> by_name;
  for (const BitIdentityFingerprint& fp : actual) by_name[fp.name] = fp.hash;
  EXPECT_EQ(by_name.at("dense_circuit"), by_name.at("dense_plan_unfused"));
}

}  // namespace
}  // namespace qtda
