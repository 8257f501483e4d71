#ifndef COSTSENSE_ENGINE_CONFIG_H_
#define COSTSENSE_ENGINE_CONFIG_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "runtime/oracle_cache.h"

namespace costsense::engine {

/// The one typed run configuration for every costsense entry point.
///
/// This is the only place the COSTSENSE_* environment variables are read
/// (lint rule R5 bans std::getenv elsewhere). Malformed values are typed
/// kInvalidArgument errors, not silent fallbacks: a bench run with
/// COSTSENSE_THREADS=banana refuses to start instead of quietly running at
/// hardware concurrency. Bench CLIs additionally accept key=value
/// overrides (ApplyOverride), which win over the environment.
///
/// Knobs and their environment/override spellings:
///
///   threads        COSTSENSE_THREADS        integer; 0/unset = hardware
///                                           concurrency
///   quick          COSTSENSE_QUICK          unset/""/"0" off, else on
///   bench_json     COSTSENSE_BENCH_JSON     perf-JSON append path
///   artifact_json  COSTSENSE_ARTIFACT_JSON  structured-artifact sidecar
///                                           path (JSON lines)
///   cache_entries  COSTSENSE_CACHE_ENTRIES  oracle-cache entry bound >= 1
///   cache_shards   COSTSENSE_CACHE_SHARDS   oracle-cache shard count >= 1
///   serve_inflight COSTSENSE_SERVE_INFLIGHT server: concurrent requests
///                                           >= 1
///   serve_queue    COSTSENSE_SERVE_QUEUE    server: admission wait-queue
///                                           bound >= 0
///   serve_deadline_ms COSTSENSE_SERVE_DEADLINE_MS
///                                           server: default per-request
///                                           deadline, 0 = unlimited
///   serve_socket   COSTSENSE_SERVE_SOCKET   server: Unix socket path
///   cache_path     COSTSENSE_CACHE_PATH     oracle-cache snapshot file;
///                                           empty = no persistence
///   serve_stats_interval_ms COSTSENSE_SERVE_STATS_INTERVAL_MS
///                                           server: periodic stats-snapshot
///                                           interval, 0 = only at shutdown
///   serve_drain_timeout_ms COSTSENSE_SERVE_DRAIN_TIMEOUT_MS
///                                           server: Shutdown() bound before
///                                           wedged sessions are force-closed,
///                                           0 = wait forever
///   serve_idle_timeout_ms COSTSENSE_SERVE_IDLE_TIMEOUT_MS
///                                           server: idle-session watchdog
///                                           reclaim threshold, 0 = off
///
/// Retired knobs (the sweep-kernel, sidecar-chain, fault-rate and
/// retry-budget variables, listed in config.cc) name settings that no
/// longer exist. FromEnv refuses any of them when set, so a script written
/// for them fails at startup instead of silently getting other behavior.
struct EngineConfig {
  /// Concurrency level; 0 means hardware concurrency at pool build time.
  size_t threads = 0;
  /// Quick mode: representative query subset + light discovery sampling.
  bool quick = false;
  /// Appended with one perf-JSON line per bench run when non-empty.
  std::string bench_json_path;
  /// Structured artifact sidecar (series/tables/metrics as JSON lines)
  /// written when non-empty; figure stdout is unaffected.
  std::string artifact_json_path;
  /// Memoizing oracle-cache sizing for the per-query stacks.
  runtime::OracleCacheOptions cache;
  /// costsense-serve admission bounds: concurrent requests and the wait
  /// queue behind them (see serve::AdmissionController).
  size_t serve_inflight = 4;
  size_t serve_queue = 16;
  /// Default per-request deadline in milliseconds; 0 = unlimited.
  size_t serve_deadline_ms = 0;
  /// Unix-domain socket path costsense-serve listens on.
  std::string serve_socket = "/tmp/costsense-serve.sock";
  /// Oracle-cache snapshot path (runtime::CacheStore); empty disables
  /// persistence. Drivers load it at startup (warm start) and save on
  /// clean shutdown; a corrupt or mismatched snapshot degrades to a cold
  /// cache with typed telemetry, never an error.
  std::string cache_path;
  /// Interval between server-side stats snapshots through the artifact
  /// sinks while serving; 0 = snapshot only at shutdown.
  size_t serve_stats_interval_ms = 0;
  /// Upper bound on Server::Shutdown() waiting for in-flight sessions
  /// before force-closing their transports; 0 = wait forever.
  size_t serve_drain_timeout_ms = 0;
  /// Idle threshold after which the session watchdog reclaims a
  /// connection that has stopped sending requests; 0 = never.
  size_t serve_idle_timeout_ms = 0;

  /// Environment accessor, injectable for tests (maps a variable name to
  /// its value or nullptr). The default reads the process environment.
  using EnvLookup = std::function<const char*(const char* name)>;

  /// Parses the process environment. kInvalidArgument on any malformed
  /// COSTSENSE_* value, naming the variable and the offending text, and on
  /// any set retired knob, naming it.
  [[nodiscard]] static Result<EngineConfig> FromEnv();
  [[nodiscard]] static Result<EngineConfig> FromEnv(const EnvLookup& lookup);

  /// Applies one "key=value" override (e.g. "threads=3", "quick=1").
  /// Overrides use the same parsers as FromEnv and win over it; unknown
  /// keys and malformed values are kInvalidArgument.
  [[nodiscard]] Status ApplyOverride(std::string_view assignment);

  /// True when `arg` looks like a recognized "key=value" override — the
  /// bench main uses this to split its argv from pass-through arguments
  /// (e.g. google-benchmark's --benchmark_filter=...).
  static bool IsOverride(std::string_view arg);

  /// Every documented knob as (override key, current value) rows, in the
  /// order listed above. Feeding each row back through ApplyOverride
  /// reproduces the config (the round-trip property config_test proves).
  std::vector<std::pair<std::string, std::string>> KnobTable() const;
};

}  // namespace costsense::engine

#endif  // COSTSENSE_ENGINE_CONFIG_H_
