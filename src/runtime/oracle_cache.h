#ifndef COSTSENSE_RUNTIME_ORACLE_CACHE_H_
#define COSTSENSE_RUNTIME_ORACLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "core/oracle.h"

namespace costsense::runtime {

/// Tuning for CachingOracle.
struct OracleCacheOptions {
  /// Number of independently locked shards (rounded up to a power of two).
  /// Probes hash-distribute across shards, so concurrent sweeps rarely
  /// contend on the same mutex.
  size_t shards = 16;
  /// Total entry bound across all shards; each shard evicts its least
  /// recently used entry once it exceeds max_entries / shards.
  size_t max_entries = 1 << 16;
};

/// Hit/miss/eviction counters for a CachingOracle.
struct OracleCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  /// Entries currently resident across all shards.
  size_t entries = 0;
  /// Entries seeded by Import() (a warm start from a snapshot).
  size_t imported = 0;
  double hit_rate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// One memoized result in snapshot form: the quantized cost key and the
/// oracle's reply at that key's canonical point. This is the unit the
/// persistence layer (runtime/cache_store.h) checksums and stores.
struct OracleCacheEntry {
  std::vector<uint64_t> key;
  core::OracleResult result;
};

/// What CachingOracle::Import did with a snapshot.
struct OracleCacheImport {
  /// Entries stored (keys the cache did not hold yet).
  size_t inserted = 0;
  /// Entries refused because their key or usage vector does not have the
  /// cache's dimension: such a key could never be hit, and such a usage
  /// would reach discovery as a malformed reply.
  size_t dropped = 0;
};

/// Mantissa bits kept when quantizing each cost coordinate into a key
/// (52 = exact doubles). 40 bits (~12 significant decimal digits) merge
/// probe points that differ only by float round-off — e.g. a box center
/// recomputed as sqrt((c/d)*(c*d)) versus the baseline c itself. The
/// snapshot header records it (runtime/cache_store.h).
inline constexpr int kKeyMantissaBits = 40;

/// Quantizes a cost coordinate to `mantissa_bits` of mantissa, rounding to
/// nearest (the carry into the exponent field is exactly binade rounding
/// for finite IEEE doubles). Exposed for tests.
uint64_t QuantizeCost(double value, int mantissa_bits);

/// The canonical representative of QuantizeCost's bucket (the unique
/// member whose dropped mantissa bits are zero). The cache evaluates the
/// base oracle at this point, so all vectors sharing a key share one
/// result — which is what makes concurrent misses benign: whichever
/// thread computes first stores the same value any loser would.
double DequantizeCost(uint64_t quantized, int mantissa_bits);

/// The quantized key of cost vector `c`: each coordinate at
/// kKeyMantissaBits. This is what counts as one optimizer probe — the
/// cache memoizes per key, the fault injector scripts faults per key and
/// the retry tier draws backoff jitter per key.
std::vector<uint64_t> QuantizeKey(const core::CostVector& c);

/// Hash of a quantized key: FNV-1a over the key's little-endian bytes,
/// started from the offset basis xor `seed`, then a splitmix-style finish
/// so the low bits (the cache shard) and the high 32 (its index slot) are
/// both well mixed. Inline: the cache hashes on every lookup.
inline uint64_t HashKey(const uint64_t* key, size_t dims, uint64_t seed = 0) {
  uint64_t h = kFnv1aOffsetBasis ^ seed;
  for (size_t i = 0; i < dims; ++i) h = Fnv1aU64(h, key[i]);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

/// The shard among `shards` (a power of two) that quantized key `key`
/// lives in. Exposed for tests.
size_t ShardOfKey(const std::vector<uint64_t>& key, size_t shards);

/// A sharded, memoizing, thread-safe PlanOracle decorator.
///
/// Wraps any PlanOracle behind the same narrow interface and memoizes
/// Optimize() by a hash of the quantized cost vector, so vertex sweeps,
/// segment bisection and completeness probing never pay for the same
/// optimizer invocation twice — serially or across threads. The base
/// oracle is invoked outside the shard lock (optimizer calls are the
/// expensive part) and must itself be safe to call concurrently when the
/// cache is shared across threads (blackbox::NarrowOptimizer qualifies).
///
/// Lookups are exact on the quantized key: colliding hashes compare full
/// keys, so two genuinely different cost vectors never alias. Results are
/// computed at the key's canonical (dequantized) point, which keeps runs
/// bit-identical regardless of thread count and probe order.
///
/// Memory is flat: each distinct (plan_id, usage) reply is stored once per
/// cache, in one table under one mutex (a hit copies its reply out under
/// it, after the shard lock is released), and a resident entry is its
/// quantized key, its total cost, a reply index and two LRU links in
/// per-shard arrays, plus an open-addressing index slot — no per-entry
/// heap allocation.
class CachingOracle : public core::PlanOracle {
 public:
  /// `base` is not owned and must outlive this.
  explicit CachingOracle(core::PlanOracle& base,
                         const OracleCacheOptions& options = {});
  ~CachingOracle() override;

  core::OracleResult Optimize(const core::CostVector& c) override;
  size_t dims() const override { return dims_; }

  OracleCacheStats stats() const;

  /// Drops every entry (counters are preserved).
  void Clear();

  /// Snapshot of every resident entry, sorted by key so the serialized
  /// form is deterministic regardless of shard layout or probe order.
  std::vector<OracleCacheEntry> Export() const;

  /// Seeds entries into the cache (the warm-start path). Existing keys
  /// are left untouched, capacity bounds still evict, and hit/miss
  /// counters are unaffected — a warm run's first probe of an imported
  /// key counts as an ordinary hit. Entries whose key or usage vector is
  /// not dims() long are dropped and counted.
  OracleCacheImport Import(const std::vector<OracleCacheEntry>& entries);

 private:
  struct Shard;
  struct Replies;

  core::PlanOracle& base_;
  const OracleCacheOptions options_;
  const size_t shard_mask_;
  const size_t per_shard_capacity_;
  const size_t dims_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Replies> replies_;
};

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_ORACLE_CACHE_H_
