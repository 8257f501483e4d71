#include "runtime/metrics.h"

#include "common/strings.h"

namespace costsense::runtime {

void RuntimeMetrics::AddCacheStats(const OracleCacheStats& stats) {
  cache_hits += stats.hits;
  cache_misses += stats.misses;
  cache_evictions += stats.evictions;
  cache_entries += stats.entries;
}

double RuntimeMetrics::CacheHitRate() const {
  const size_t total = cache_hits + cache_misses;
  return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
}

double RuntimeMetrics::TotalWallMs() const {
  double total = 0.0;
  for (const auto& [name, ms] : phase_wall_ms) total += ms;
  return total;
}

std::string RuntimeMetrics::Render() const {
  std::string out = StrFormat(
      "runtime: threads=%zu tasks=%zu queue_high_water=%zu "
      "cache: hits=%zu misses=%zu evictions=%zu entries=%zu hit_rate=%.3f\n",
      threads, tasks_run, queue_high_water, cache_hits, cache_misses,
      cache_evictions, cache_entries, CacheHitRate());
  if (oracle_attempts > 0 || faults_injected > 0 || degraded_points > 0) {
    out += StrFormat(
        "resilience: attempts=%zu retries=%zu failures=%zu "
        "faults_injected=%zu degraded_points=%zu coverage=%.4f\n",
        oracle_attempts, oracle_retries, oracle_failures, faults_injected,
        degraded_points, coverage);
  }
  for (const auto& [name, ms] : phase_wall_ms) {
    out += StrFormat("  phase %-12s %10.1f ms\n", name.c_str(), ms);
  }
  out += StrFormat("  total        %12.1f ms\n", TotalWallMs());
  return out;
}

std::string RuntimeMetrics::ToJsonLine(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& extra) const {
  std::string out = StrFormat(
      "{\"bench\":\"%s\",\"threads\":%zu,\"wall_ms\":%.1f,"
      "\"tasks_run\":%zu,\"queue_high_water\":%zu,"
      "\"cache_hits\":%zu,\"cache_misses\":%zu,\"cache_evictions\":%zu,"
      "\"cache_entries\":%zu,\"cache_hit_rate\":%.4f,"
      "\"oracle_attempts\":%zu,\"oracle_retries\":%zu,"
      "\"oracle_failures\":%zu,\"faults_injected\":%zu,"
      "\"degraded_points\":%zu,\"coverage\":%.6f",
      bench_name.c_str(), threads, TotalWallMs(), tasks_run, queue_high_water,
      cache_hits, cache_misses, cache_evictions, cache_entries,
      CacheHitRate(), oracle_attempts, oracle_retries, oracle_failures,
      faults_injected, degraded_points, coverage);
  for (const auto& [name, ms] : phase_wall_ms) {
    out += StrFormat(",\"%s_ms\":%.1f", name.c_str(), ms);
  }
  for (const auto& [name, value] : extra) {
    out += StrFormat(",\"%s\":%g", name.c_str(), value);
  }
  out += "}\n";
  return out;
}

}  // namespace costsense::runtime
