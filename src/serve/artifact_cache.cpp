#include "serve/artifact_cache.hpp"

#include <cstdio>

#include "common/telemetry.hpp"
#include "quantum/precision.hpp"
#include "topology/laplacian.hpp"
#include "topology/rips.hpp"

namespace qtda {

namespace {

/// %.17g rendering — round-trips every finite double exactly, so two
/// requests with bit-equal parameters always form the same key and two with
/// different parameters never collide on formatting.
std::string double_token(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::size_t complex_bytes(const SimplicialComplex& complex) {
  std::size_t bytes = sizeof(SimplicialComplex);
  for (int k = 0; k <= complex.max_dimension(); ++k) {
    // Simplices are stored twice (sorted vector + index map); the factor 2
    // plus the per-entry map overhead keeps the estimate honest without
    // chasing unordered_map internals.
    bytes += complex.count(k) * (2 * sizeof(Simplex) + 48);
    for (const Simplex& s : complex.simplices(k))
      bytes += 2 * s.vertices().size() * sizeof(VertexId);
  }
  return bytes;
}

std::size_t laplacian_bytes(const SparseMatrix& matrix) {
  return sizeof(SparseMatrix) +
         matrix.row_offsets().size() * sizeof(std::size_t) +
         matrix.col_indices().size() * sizeof(std::size_t) +
         matrix.values().size() * sizeof(double);
}

}  // namespace

ArtifactStore::ArtifactStore(const ArtifactStoreOptions& options)
    : complexes_(options.budget_bytes / 8, options.shards),
      laplacians_(options.budget_bytes / 8, options.shards),
      plans_(options.budget_bytes - 2 * (options.budget_bytes / 8),
             options.shards) {}

std::string ArtifactStore::plan_key(std::uint64_t complex_fingerprint, int k,
                                    const EstimatorOptions& options) {
  std::string key = "cx=" + fingerprint_hex(complex_fingerprint);
  key += "|k=" + std::to_string(k);
  key += "|backend=" + estimator_backend_name(options.backend);
  key += "|t=" + std::to_string(options.precision_qubits);
  key += "|delta=" + double_token(options.delta);
  key += "|pad=" + std::to_string(static_cast<int>(options.padding));
  key += options.mixed_state == MixedStateMode::kPurification
             ? "|mixed=purify"
             : "|mixed=sampled";
  key += "|prec=" + precision_name(options.precision);
  if (options.backend == EstimatorBackend::kCircuitTrotter) {
    key += "|trotter=" + std::to_string(options.trotter.steps) + "," +
           std::to_string(options.trotter.order) + "," +
           (options.trotter.group_commuting ? "g" : "u");
  }
  // The env-driven fusion policy and the noise-slot layout change the
  // compiled artifact, so they are key axes too: flipping QTDA_FUSE between
  // requests can never alias two different plans.
  key += "|" + compiler_options_cache_key(estimator_compiler_options(options.noise));
  return key;
}

ResolvedArtifacts ArtifactStore::resolve(const PointCloud& cloud,
                                         double epsilon, int k,
                                         const EstimatorOptions& options) {
  QTDA_SPAN("resolve");
  ResolvedArtifacts resolved;

  const std::uint64_t cloud_fp = fingerprint_point_cloud(cloud);
  const std::string complex_key = "cloud=" + fingerprint_hex(cloud_fp) +
                                  "|eps=" + double_token(epsilon) +
                                  "|dim=" + std::to_string(k + 1);
  resolved.complex = complexes_.get_or_create(
      complex_key,
      [&]() -> ShardedLruCache<SimplicialComplex>::Sized {
        auto complex = std::make_shared<const SimplicialComplex>(
            rips_complex(cloud, epsilon, k + 1));
        const std::size_t bytes = complex_bytes(*complex);
        return {std::move(complex), bytes};
      },
      &resolved.complex_hit);
  resolved.complex_fingerprint = fingerprint_complex(*resolved.complex);

  if (resolved.complex->count(k) == 0) return resolved;  // empty estimate

  const std::string laplacian_key =
      "cx=" + fingerprint_hex(resolved.complex_fingerprint) +
      "|k=" + std::to_string(k);
  const auto& complex = *resolved.complex;
  resolved.laplacian = laplacians_.get_or_create(
      laplacian_key,
      [&]() -> ShardedLruCache<SparseMatrix>::Sized {
        auto laplacian = std::make_shared<const SparseMatrix>(
            sparse_combinatorial_laplacian(complex, k));
        const std::size_t bytes = laplacian_bytes(*laplacian);
        return {std::move(laplacian), bytes};
      },
      &resolved.laplacian_hit);

  const std::string key = plan_key(resolved.complex_fingerprint, k, options);
  const auto& laplacian = *resolved.laplacian;
  resolved.plan = plans_.get_or_create(
      key,
      [&]() -> ShardedLruCache<PlanArtifact>::Sized {
        auto artifact = std::make_shared<PlanArtifact>();
        artifact->compiled = compile_betti_estimate(laplacian, options);
        const std::size_t bytes = artifact->memory_bytes();
        return {std::move(artifact), bytes};
      },
      &resolved.plan_hit);
  return resolved;
}

void ArtifactStore::clear() {
  complexes_.clear();
  laplacians_.clear();
  plans_.clear();
}

}  // namespace qtda
