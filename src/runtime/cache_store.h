#ifndef COSTSENSE_RUNTIME_CACHE_STORE_H_
#define COSTSENSE_RUNTIME_CACHE_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "runtime/oracle_cache.h"
#include "runtime/sink/crc32.h"

namespace costsense::runtime {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`. Every snapshot
/// record carries its body's checksum so a torn write or flipped bit is
/// detected before a single stale result can reach an analysis. The
/// implementation lives in the sink module (the framing stage shares it);
/// this forwarder keeps the historical call sites compiling.
inline uint32_t Crc32(std::string_view data) { return sink::Crc32(data); }

/// Why a snapshot load ended up cold (or didn't). A load either accepts
/// the whole file or rejects the whole file: a snapshot any of whose
/// records fails validation contributes nothing, so a warm start can never
/// mix clean and corrupt state ("never partially load a corrupt shard").
struct CacheStoreTelemetry {
  /// Records made available to importers by a successful load.
  size_t loaded = 0;
  /// Whole-file rejections, by cause. At most one of these is nonzero
  /// after a load; all zero with loaded == 0 means no snapshot existed.
  size_t rejected_crc = 0;           // a record's CRC32 disagreed
  size_t rejected_truncated = 0;     // file/record shorter than declared
  size_t rejected_version = 0;       // bad magic or format version
  size_t rejected_catalog = 0;       // snapshot built over another catalog
  size_t rejected_quantization = 0;  // mantissa-bits mismatch
  /// Records written by the last successful Save().
  size_t saved = 0;

  /// True when the load rejected an existing snapshot for any reason.
  bool rejected() const {
    return rejected_crc + rejected_truncated + rejected_version +
               rejected_catalog + rejected_quantization >
           0;
  }
};

/// Identity of a snapshot: where it lives and which world it belongs to.
struct CacheStoreOptions {
  /// Snapshot file path (COSTSENSE_CACHE_PATH).
  std::string path;
  /// Fingerprint of the catalog the cached results were computed against
  /// (catalog::Catalog::Fingerprint()). A snapshot whose hash disagrees is
  /// refused wholesale: cached plan choices for a different catalog — or a
  /// q-error-perturbed variant of this one — are wrong answers, not warm
  /// ones.
  uint64_t catalog_hash = 0;
};

/// A crash-safe on-disk snapshot of one or more CachingOracles.
///
/// File format (common/bytes.h, the wire protocol's codec: all integers
/// big-endian):
///
///   header   "CSOC" | u32 format version | u64 catalog hash |
///            u32 key mantissa bits (kKeyMantissaBits) | u64 record count
///   record   u32 body length | u32 CRC32(body) | body
///   body     u16 scope length, scope bytes (the query id, e.g. "Q6/shared")
///            u16 dims, dims x u64 quantized cost key
///            u16 plan id length, plan id bytes
///            u64 total_cost (IEEE-754 bits)
///            u8 has_usage [u16 usage length, usage x u64 IEEE-754 bits]
///
/// Loading validates the header and every record's length and CRC before
/// exposing anything; any failure yields a cold cache plus one typed
/// telemetry counter — never a crash, never a partial load. Saving writes
/// the whole snapshot to `<path>.tmp`, fsyncs, and renames over `path`, so
/// a crash mid-save leaves the previous snapshot intact.
///
/// Thread-safe: figure sweeps publish per-query scopes from pool workers.
class CacheStore {
 public:
  /// Construction performs the load: the store is immediately queryable
  /// via EntriesFor()/telemetry(). A missing file is a silent cold start.
  explicit CacheStore(CacheStoreOptions options);

  const CacheStoreOptions& options() const { return options_; }

  /// Loaded entries for `scope` (empty when cold or unknown scope).
  std::vector<OracleCacheEntry> EntriesFor(std::string_view scope) const;

  /// Replaces the entries recorded for `scope` with `entries`. Scopes not
  /// republished keep their loaded entries, so a run that only touched a
  /// few queries still saves the others' warmth forward.
  void Publish(std::string_view scope, std::vector<OracleCacheEntry> entries);

  /// Atomically persists every scope (loaded and published) to
  /// options().path via tmp file + fsync + rename. Typed error on I/O
  /// failure; the previous snapshot survives any failed save.
  [[nodiscard]] Status Save();

  CacheStoreTelemetry telemetry() const;

 private:
  void LoadLocked();

  const CacheStoreOptions options_;
  mutable std::mutex mu_;
  /// scope -> entries; std::map keeps Save() output deterministic.
  std::map<std::string, std::vector<OracleCacheEntry>, std::less<>> scopes_;
  CacheStoreTelemetry telemetry_;
};

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_CACHE_STORE_H_
