/// \file artifact_cache.hpp
/// \brief Content-keyed artifact caching for the serving layer.
///
/// A served estimate decomposes into three reusable artifacts — the Rips
/// complex of (cloud, ε), the sparse Laplacian of (complex, k), and the
/// CompiledEstimate of (complex, k, estimator options): the exact p(0) and,
/// for every circuit backend, the compiled ExecutionPlan — each far more
/// expensive than the shot sampling that actually answers a warm request.
/// ShardedLruCache is the storage primitive: string-keyed (structural
/// equality — the parameter axes are spelled out in the key, only content
/// fingerprints are hashed), sharded by key hash to keep lock hold times
/// short, LRU-evicted per shard under a byte budget.  ArtifactStore stacks
/// the three caches and resolves a request through them; because levels two
/// and three key on the *complex* fingerprint, distinct clouds that induce
/// the same ε-complex share the Laplacian and the plan.
///
/// Compiled plans carry mutable scratch (the one-executor-at-a-time
/// contract of ExecutionPlan), so the plan cache wraps each entry in a
/// PlanArtifact with its own execution mutex: the cache may hand the same
/// plan to any number of threads, and executors serialize on that mutex —
/// never on the cache locks.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/betti_estimator.hpp"
#include "serve/fingerprint.hpp"
#include "topology/point_cloud.hpp"

namespace qtda {

/// Counters of one cache level (or the aggregate; plain totals, no rates).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// String-keyed, byte-budgeted, sharded LRU map of shared immutable values.
///
/// The byte budget is split evenly across shards and enforced per shard
/// (global enforcement would serialize every insertion on one lock); a
/// value larger than its shard's budget is returned but never cached.  The
/// factory for a missing key runs under the shard lock, which both
/// deduplicates concurrent builds of the same key and applies natural
/// admission back-pressure — at most one expensive compilation per shard at
/// a time.
template <typename Value>
class ShardedLruCache {
 public:
  /// What a factory returns: the value plus its accounted size.
  struct Sized {
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
  };

  ShardedLruCache(std::size_t budget_bytes, std::size_t num_shards)
      : shard_budget_(budget_bytes / (num_shards == 0 ? 1 : num_shards)),
        shards_(num_shards == 0 ? 1 : num_shards) {}

  /// Returns the cached value for \p key, or builds it with \p factory.
  /// \p hit reports which happened (may be null).
  std::shared_ptr<const Value> get_or_create(
      const std::string& key, const std::function<Sized()>& factory,
      bool* hit = nullptr) {
    Shard& shard = shards_[shard_of(key)];
    MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (hit != nullptr) *hit = true;
      return it->second->second.value;
    }
    ++shard.stats.misses;
    if (hit != nullptr) *hit = false;
    Sized built = factory();
    if (built.bytes > shard_budget_) return std::move(built.value);
    shard.lru.emplace_front(key, built);
    shard.index[key] = shard.lru.begin();
    shard.stats.bytes += built.bytes;
    while (shard.stats.bytes > shard_budget_ && shard.lru.size() > 1) {
      shard.stats.bytes -= shard.lru.back().second.bytes;
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    return built.value;
  }

  /// Aggregated counters across shards.
  CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.evictions += shard.stats.evictions;
      total.entries += shard.lru.size();
      total.bytes += shard.stats.bytes;
    }
    return total;
  }

  void clear() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
      shard.stats = CacheStats{};
    }
  }

 private:
  struct Shard {
    mutable Mutex mutex;
    /// front = hottest
    std::list<std::pair<std::string, Sized>> lru QTDA_GUARDED_BY(mutex);
    std::map<std::string, typename std::list<std::pair<std::string, Sized>>::
                              iterator>
        index QTDA_GUARDED_BY(mutex);
    CacheStats stats QTDA_GUARDED_BY(mutex);
  };

  std::size_t shard_of(const std::string& key) const {
    return fnv1a(key.data(), key.size()) % shards_.size();
  }

  std::size_t shard_budget_;
  std::vector<Shard> shards_;
};

/// A cached compiled estimate plus the mutex that serializes executions of
/// its plan (the plan's scratch arena is shared mutable state).
struct PlanArtifact {
  CompiledEstimate compiled;
  mutable Mutex exec_mutex;

  std::size_t memory_bytes() const { return compiled.memory_bytes(); }
};

/// ArtifactStore configuration.
struct ArtifactStoreOptions {
  /// Total byte budget, split 1/8 complexes, 1/8 Laplacians, 3/4 plans
  /// (plans dominate: they carry the oracle matrices).
  std::size_t budget_bytes = std::size_t{256} << 20;
  std::size_t shards = 8;
};

/// Which cache levels answered a resolve, plus the resolved artifacts.
struct ResolvedArtifacts {
  std::shared_ptr<const SimplicialComplex> complex;
  std::uint64_t complex_fingerprint = 0;
  std::shared_ptr<const SparseMatrix> laplacian;  ///< null when |S_k| = 0
  std::shared_ptr<const PlanArtifact> plan;  ///< null when |S_k| = 0
  bool complex_hit = false;
  bool laplacian_hit = false;
  bool plan_hit = false;
};

/// The three-level content-keyed store behind BettiServer.
class ArtifactStore {
 public:
  explicit ArtifactStore(const ArtifactStoreOptions& options = {});

  /// Resolves cloud → complex → Laplacian → compiled estimate, for every
  /// backend.  Bit-identity: every factory is exactly the function the cold
  /// CLI path calls, so a hit only changes where an artifact comes from.
  ResolvedArtifacts resolve(const PointCloud& cloud, double epsilon, int k,
                            const EstimatorOptions& options);

  /// The plan-cache key of a request — exposed so the server's batcher can
  /// group identical-plan requests without resolving them first.
  static std::string plan_key(std::uint64_t complex_fingerprint, int k,
                              const EstimatorOptions& options);

  CacheStats complex_stats() const { return complexes_.stats(); }
  CacheStats laplacian_stats() const { return laplacians_.stats(); }
  CacheStats plan_stats() const { return plans_.stats(); }

  void clear();

 private:
  ShardedLruCache<SimplicialComplex> complexes_;
  ShardedLruCache<SparseMatrix> laplacians_;
  ShardedLruCache<PlanArtifact> plans_;
};

}  // namespace qtda
