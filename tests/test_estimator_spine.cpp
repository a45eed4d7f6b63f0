/// \file test_estimator_spine.cpp
/// \brief Pins every estimator entry point, bit for bit, per backend and
/// mixed-state mode.
///
/// Each pin is an FNV-1a fingerprint over the outcome fields that a change of
/// path could move: the zero counts and the bits of β̃, the exact p(0), λ̃max,
/// the register width, the gate count and the depth.  The expectations were
/// captured on the tree in which the analytic and exact backends (and every
/// dense-input estimate) still ran their own dense pad/rescale/execute path,
/// before all four backends were routed through compile_betti_estimate and
/// estimate_betti_with_plan; a pass shows the one CSR spine reproduces those
/// bytes.  The Trotter pins came later, from the tree in which dense input
/// already decomposed through the CSR Pauli decomposition but the compiler
/// did not yet cancel inverse gate pairs: the circuit's gates and depth are
/// hashed before compilation, and 300 shots cannot resolve the last-bit
/// change a cancelled pair makes to the probabilities, so a pass shows the
/// cancellation leaves the estimates alone.
///
/// Equal pins are expected: the dense, CSR and complex entry points run the
/// same cases, and the exact and sparse oracles agree far below what 300
/// shots resolve, so they draw the same counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bit_identity_scenarios.hpp"
#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "core/persistent_estimator.hpp"
#include "scoped_env.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

using testing::fnv1a_bytes;
using testing::ScopedSimulatorEnv;

template <typename T>
void hash_field(const T& value, std::uint64_t& hash) {
  fnv1a_bytes(&value, sizeof(value), hash);
}

void hash_estimate(const BettiEstimate& e, std::uint64_t& hash) {
  hash_field(e.zero_counts, hash);
  hash_field(e.estimated_betti, hash);
  hash_field(e.exact_zero_probability, hash);
  hash_field(e.lambda_max, hash);
  hash_field(e.total_qubits, hash);
  hash_field(e.circuit_gates, hash);
  hash_field(e.circuit_depth, hash);
}

/// K from the paper's Eq. (13): its Δ_1 is the worked example of Appendix A.
SimplicialComplex paper_complex() {
  return SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}}, true);
}

struct SpineCase {
  SimplicialComplex complex;
  int k = 0;
};

/// The worked example plus seeded random flag complexes at k = 0 and 1,
/// small enough (|S_k| ≤ 32) for the exact backend's dense oracle.
std::vector<SpineCase> spine_cases() {
  std::vector<SpineCase> cases = {{paper_complex(), 1}};
  Rng rng(2718);
  for (std::size_t n : {4, 5, 6, 7}) {
    RandomComplexOptions options;
    options.num_vertices = n;
    options.edge_probability = 0.5;
    const SimplicialComplex complex = random_flag_complex(options, rng);
    for (int k : {0, 1}) {
      if (complex.count(k) > 0) cases.push_back({complex, k});
    }
  }
  return cases;
}

/// Subcomplex pairs K ⊆ L for the persistent estimator: the worked example
/// with and without its filled triangle, and random flag complexes against
/// the flag complex of their vertex-induced subgraph on all but one vertex.
struct PersistentCase {
  SimplicialComplex sub;
  SimplicialComplex super;
  int k = 0;
};

std::vector<PersistentCase> persistent_cases() {
  const SimplicialComplex hollow = SimplicialComplex::from_simplices(
      {Simplex{1, 2}, Simplex{1, 3}, Simplex{2, 3}, Simplex{3, 4},
       Simplex{3, 5}, Simplex{4, 5}},
      true);
  std::vector<PersistentCase> cases = {{hollow, paper_complex(), 1},
                                       {hollow, paper_complex(), 0}};
  Rng rng(3141);
  for (std::size_t n : {5, 6, 7}) {
    RandomComplexOptions options;
    options.num_vertices = n;
    options.edge_probability = 0.6;
    const SimplicialComplex super = random_flag_complex(options, rng);
    std::vector<Simplex> kept;
    for (int d = 0; d <= super.max_dimension(); ++d) {
      for (const Simplex& s : super.simplices(d)) {
        bool uses_last = false;
        for (VertexId v : s.vertices()) uses_last |= v + 1 == n;
        if (!uses_last) kept.push_back(s);
      }
    }
    const SimplicialComplex sub = SimplicialComplex::from_simplices(kept, true);
    for (int k : {0, 1}) {
      if (sub.count(k) > 0) cases.push_back({sub, super, k});
    }
  }
  return cases;
}

/// "<entry point>/<backend>/<mixed-state mode>" → fingerprint over every
/// case, in case order, each case with its own seed.
std::map<std::string, std::uint64_t> spine_fingerprints() {
  const std::vector<SpineCase> all_cases = spine_cases();
  // The Trotter backend runs the cases with |S_k| ≤ 16: its gate count
  // grows with the Pauli terms of the padded 2^q × 2^q Hamiltonian.
  std::vector<SpineCase> trotter_cases;
  for (const SpineCase& c : all_cases)
    if (c.complex.count(c.k) <= 16) trotter_cases.push_back(c);
  const std::vector<PersistentCase> pairs = persistent_cases();
  const std::vector<SpineCase>* cases = &all_cases;
  using Entry = std::function<void(const EstimatorOptions&, std::uint64_t&)>;
  const std::vector<std::pair<std::string, Entry>> entries = {
      {"dense",
       [&](EstimatorOptions options, std::uint64_t& hash) {
         for (const SpineCase& c : *cases) {
           ++options.seed;
           hash_estimate(estimate_betti_from_laplacian(
                             combinatorial_laplacian(c.complex, c.k), options),
                         hash);
         }
       }},
      {"csr",
       [&](EstimatorOptions options, std::uint64_t& hash) {
         for (const SpineCase& c : *cases) {
           ++options.seed;
           hash_estimate(
               estimate_betti_from_sparse_laplacian(
                   sparse_combinatorial_laplacian(c.complex, c.k), options),
               hash);
         }
       }},
      {"complex",
       [&](EstimatorOptions options, std::uint64_t& hash) {
         for (const SpineCase& c : *cases) {
           ++options.seed;
           hash_estimate(estimate_betti(c.complex, c.k, options), hash);
         }
       }},
      {"persistent",
       [&](EstimatorOptions options, std::uint64_t& hash) {
         for (const PersistentCase& c : pairs) {
           ++options.seed;
           hash_estimate(
               estimate_persistent_betti(c.sub, c.super, c.k, options), hash);
         }
       }},
  };

  std::map<std::string, std::uint64_t> fingerprints;
  for (EstimatorBackend backend :
       {EstimatorBackend::kAnalytic, EstimatorBackend::kCircuitExact,
        EstimatorBackend::kCircuitSparse, EstimatorBackend::kCircuitTrotter}) {
    const bool trotter = backend == EstimatorBackend::kCircuitTrotter;
    cases = trotter ? &trotter_cases : &all_cases;
    for (MixedStateMode mode :
         {MixedStateMode::kPurification, MixedStateMode::kSampledBasis}) {
      EstimatorOptions options;
      options.backend = backend;
      options.mixed_state = mode;
      options.precision_qubits = 3;
      options.shots = 300;
      options.seed = 90;
      for (const auto& [entry, run] : entries) {
        if (trotter && entry == "persistent") continue;
        std::uint64_t hash = 1469598103934665603ULL;
        run(options, hash);
        fingerprints[entry + "/" + estimator_backend_name(backend) + "/" +
                     (mode == MixedStateMode::kPurification ? "purify"
                                                            : "sampled")] =
            hash;
      }
    }
  }
  return fingerprints;
}

const std::map<std::string, std::uint64_t>& pinned_fingerprints() {
  static const std::map<std::string, std::uint64_t> pinned = {
      {"complex/analytic/purify", 0x227fe71c5fba4aefULL},
      {"complex/analytic/sampled", 0xb5415213e1843e42ULL},
      {"complex/exact/purify", 0xf6685b2dd7564483ULL},
      {"complex/exact/sampled", 0x12fe8fa1044b8f50ULL},
      {"complex/sparse/purify", 0xf6685b2dd7564483ULL},
      {"complex/sparse/sampled", 0x12fe8fa1044b8f50ULL},
      {"csr/analytic/purify", 0x227fe71c5fba4aefULL},
      {"csr/analytic/sampled", 0xb5415213e1843e42ULL},
      {"csr/exact/purify", 0xf6685b2dd7564483ULL},
      {"csr/exact/sampled", 0x12fe8fa1044b8f50ULL},
      {"csr/sparse/purify", 0xf6685b2dd7564483ULL},
      {"csr/sparse/sampled", 0x12fe8fa1044b8f50ULL},
      {"dense/analytic/purify", 0x227fe71c5fba4aefULL},
      {"dense/analytic/sampled", 0xb5415213e1843e42ULL},
      {"dense/exact/purify", 0xf6685b2dd7564483ULL},
      {"dense/exact/sampled", 0x12fe8fa1044b8f50ULL},
      {"dense/sparse/purify", 0xf6685b2dd7564483ULL},
      {"dense/sparse/sampled", 0x12fe8fa1044b8f50ULL},
      {"complex/trotter/purify", 0x5d2a84ab3cef8f7fULL},
      {"complex/trotter/sampled", 0x4df09c905edb0d56ULL},
      {"csr/trotter/purify", 0x5d2a84ab3cef8f7fULL},
      {"csr/trotter/sampled", 0x4df09c905edb0d56ULL},
      {"dense/trotter/purify", 0x5d2a84ab3cef8f7fULL},
      {"dense/trotter/sampled", 0x4df09c905edb0d56ULL},
      {"persistent/analytic/purify", 0x82ba466f557ab60dULL},
      {"persistent/analytic/sampled", 0x198f0eec5854dadbULL},
      {"persistent/exact/purify", 0xd97750b9c99d4be1ULL},
      {"persistent/exact/sampled", 0xed878f1bcdcbb8ffULL},
      {"persistent/sparse/purify", 0xd97750b9c99d4be1ULL},
      {"persistent/sparse/sampled", 0xed878f1bcdcbb8ffULL},
  };
  return pinned;
}

TEST(EstimatorSpine, EveryEntryPointReproducesItsPinnedFingerprint) {
  // The pins are double-precision, default-fusion, statevector bytes: clear
  // the engine/fusion overrides and hold the float64 rail for this scope.
  ScopedSimulatorEnv env;
  ScopedSimulatorEnv::clear();
  setenv("QTDA_PRECISION", "float64", 1);

  const std::map<std::string, std::uint64_t> actual = spine_fingerprints();
  ASSERT_EQ(actual.size(), pinned_fingerprints().size());
  for (const auto& [name, hash] : actual) {
    const auto it = pinned_fingerprints().find(name);
    ASSERT_NE(it, pinned_fingerprints().end()) << name << " has no pin";
    EXPECT_EQ(hash, it->second)
        << name << " = 0x" << std::hex << hash << " no longer reproduces "
        << "its pinned bytes";
  }
}

}  // namespace
}  // namespace qtda
