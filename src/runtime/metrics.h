#ifndef COSTSENSE_RUNTIME_METRICS_H_
#define COSTSENSE_RUNTIME_METRICS_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "runtime/oracle_cache.h"

namespace costsense::runtime {

/// Wall-clock stopwatch for phase timing in drivers and benches.
class WallTimer {
 public:
  // costsense-lint: allow(R1, "phase timing for stderr/JSON perf lines; never reaches figure stdout")
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Milliseconds elapsed since construction or the last Restart().
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               // costsense-lint: allow(R1, "stopwatch read; stderr/JSON metrics only")
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  // costsense-lint: allow(R1, "stopwatch reset; stderr/JSON metrics only")
  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  // costsense-lint: allow(R1, "stopwatch state; stderr/JSON metrics only")
  std::chrono::steady_clock::time_point start_;
};

/// Aggregated runtime counters for one driver run: thread-pool activity,
/// oracle-cache effectiveness, and wall time per phase. Printed by the
/// figure/table binaries (stderr, to keep figure stdout byte-stable) and
/// serialized as one JSON line for perf-trajectory tracking.
struct RuntimeMetrics {
  size_t threads = 1;
  size_t tasks_run = 0;
  size_t queue_high_water = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;
  /// Entries resident in the oracle cache(s) at snapshot time. For a
  /// long-lived server this is the cross-request warm-cache footprint.
  size_t cache_entries = 0;
  /// Probe-chain accounting, summed over analyses: oracle probe calls,
  /// attempts including retries, retry attempts, calls that failed after
  /// the whole retry budget, fault events the injector delivered, and
  /// probe points the drivers degraded (skipped or routed to a fallback).
  size_t probe_calls = 0;
  size_t oracle_attempts = 0;
  size_t oracle_retries = 0;
  size_t oracle_failures = 0;
  size_t faults_injected = 0;
  size_t degraded_points = 0;
  /// (phase name, wall milliseconds), in execution order.
  std::vector<std::pair<std::string, double>> phase_wall_ms;

  /// Accumulates one CachingOracle's counters into the cache_* fields
  /// (call once per cache; a server aggregates across its shared caches).
  void AddCacheStats(const OracleCacheStats& stats);

  double CacheHitRate() const;
  /// Fraction of probe calls that produced a usable reply (1.0 = full
  /// coverage, nothing degraded).
  double Coverage() const;
  double TotalWallMs() const;

  /// Human-readable multi-line block.
  std::string Render() const;

  /// One machine-readable JSON object per line, e.g.
  ///   {"bench":"fig6_separate_devices","threads":8,"wall_ms":912.4,...}
  /// `extra` appends numeric fields (name, value) after the fixed ones.
  std::string ToJsonLine(
      const std::string& bench_name,
      const std::vector<std::pair<std::string, double>>& extra = {}) const;
};

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_METRICS_H_
