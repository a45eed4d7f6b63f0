/// \file test_bit_identity.cpp
/// \brief Pins the scalar double-precision arithmetic to the historical
/// (pre-SIMD-refactor) results, bit for bit.
///
/// The expectations below were captured from the tree before the vector
/// kernels and the precision template landed, with the engines running their
/// plain scalar loops.  Under `QTDA_SIMD=0` every engine must still produce
/// exactly these bytes — the refactor's core promise, asserted by the CI
/// scalar leg.  Every vector kernel is bit-identical to its scalar branch by
/// construction (same products, same rounding, the Chebyshev oracle's CSR
/// sums included), so at any SIMD level every scenario reproduces these
/// bytes too — except the two fused plans: the fusion cost model is
/// calibrated per dispatch level, so vector dispatch may fuse differently.

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

// Captured before the SIMD/precision refactor (scalar double arithmetic).
const std::map<std::string, std::uint64_t>& golden_fingerprints() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"dense_circuit", 0x2b45dc7ffcab148cULL},
      {"dense_marginal", 0x14f273652935766fULL},
      {"dense_plan_fused", 0x8aaf3a8094c26c63ULL},
      {"dense_plan_unfused", 0x2b45dc7ffcab148cULL},
      {"sharded_circuit", 0x2b45dc7ffcab148cULL},
      {"sharded_marginal", 0x14f273652935766fULL},
      {"sharded_plan_fused", 0x8aaf3a8094c26c63ULL},
      {"density_noisy", 0x8a395d560f45e781ULL},
      {"trajectory_seed42", 0x5fe0a203105a2182ULL},
      {"dense_operator", 0xa82f3991137a8210ULL},
      {"dense_large", 0x07de12e830060383ULL},
      {"dense_large_marginal", 0x5e9c457708de6583ULL},
  };
  return golden;
}

// Fused plan shapes depend on the dispatch level's cost calibration, so a
// vector level skips the two fused fingerprints; every other scenario's
// arithmetic must not depend on the level at all.
TEST(BitIdentity, ScalarDoubleResultsMatchHistoricalFingerprints) {
  const SimdLevel level = active_simd_level();
  const std::vector<BitIdentityFingerprint> actual =
      bit_identity_fingerprints();
  ASSERT_EQ(actual.size(), golden_fingerprints().size());
  for (const BitIdentityFingerprint& fp : actual) {
    const auto it = golden_fingerprints().find(fp.name);
    ASSERT_NE(it, golden_fingerprints().end())
        << "scenario \"" << fp.name << "\" has no committed expectation";
    if (level != SimdLevel::kScalar &&
        (fp.name == "dense_plan_fused" || fp.name == "sharded_plan_fused"))
      continue;
    EXPECT_EQ(fp.hash, it->second)
        << "scenario \"" << fp.name
        << "\" no longer reproduces the historical bytes at SIMD level "
        << simd_level_name(level);
  }
}

// The dense/sharded/unfused coincidences (three fingerprints sharing one
// value) are part of the contract: the unfused plan and the sharded engine
// replay exactly the dense gate-by-gate arithmetic.  Assert the coincidence
// itself at every SIMD level — it must hold for the vector kernels too.
TEST(BitIdentity, EnginesAgreeByteForByteAtEverySimdLevel) {
  const std::vector<BitIdentityFingerprint> actual =
      bit_identity_fingerprints();
  std::map<std::string, std::uint64_t> by_name;
  for (const BitIdentityFingerprint& fp : actual) by_name[fp.name] = fp.hash;
  EXPECT_EQ(by_name.at("dense_circuit"), by_name.at("dense_plan_unfused"));
  EXPECT_EQ(by_name.at("dense_circuit"), by_name.at("sharded_circuit"));
  EXPECT_EQ(by_name.at("dense_marginal"), by_name.at("sharded_marginal"));
  EXPECT_EQ(by_name.at("dense_plan_fused"), by_name.at("sharded_plan_fused"));
}

}  // namespace
}  // namespace qtda
