#ifndef COSTSENSE_SERVE_DISPATCHER_H_
#define COSTSENSE_SERVE_DISPATCHER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/discovery.h"
#include "runtime/oracle_stack.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_cache.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/sink/sink.h"
#include "runtime/thread_pool.h"
#include "serve/protocol.h"

namespace costsense::serve {

/// Tuning for the analysis dispatcher.
struct DispatcherOptions {
  /// Discovery budget applied to every request (the request's deltas pick
  /// the band; the budget is a server policy, not a client knob).
  core::DiscoveryOptions discovery;
  /// Sizing of each shared per-(query, policy) oracle cache.
  runtime::OracleCacheOptions cache;
  /// Seed of every request's probe stream. Fixed per server, so equal
  /// requests replay equal probe sequences — the determinism invariant.
  uint64_t seed = 0x5eed;
  /// Deadline applied when a request carries deadline_ns == 0.
  /// 0 = unlimited.
  uint64_t default_deadline_ns = 0;
  /// Optional deterministic fault injection between each request's retry
  /// tier and the shared cache, built only when faults.fault_rate > 0
  /// (tests drive deadline behaviour with latency faults on a
  /// ManualClock; production servers leave the rate at 0). Requests never
  /// retry: a failed probe fails the request.
  runtime::resilience::FaultInjectionOptions faults;
  /// Pool the per-request discovery probes and per-rival LPs fan out on;
  /// null uses the process-global pool.
  runtime::ThreadPool* pool = nullptr;
  /// Clock for deadlines and latency faults; null = real steady clock.
  runtime::resilience::Clock* clock = nullptr;
  /// TPC-H catalog scale factor (the paper's experiments use 100).
  double scale_factor = 100.0;
  /// Oracle-cache snapshot file (COSTSENSE_CACHE_PATH); empty = no
  /// persistence. Loaded at construction so contexts materialize warm;
  /// PersistCache() writes the merged warmth back.
  std::string cache_path;
};

/// Cross-request dispatcher state counters.
struct DispatcherStats {
  /// Requests handled (any outcome).
  uint64_t requests = 0;
  /// Requests that produced a non-OK response code.
  uint64_t failed_requests = 0;
  /// Materialized (query, policy) contexts.
  size_t contexts = 0;
  /// Aggregate over every context's shared oracle cache.
  runtime::OracleCacheStats cache;
  /// True when a snapshot store is attached (cache_path configured).
  bool persistent = false;
  /// Snapshot load/save/rejection counters (zero without a store).
  runtime::CacheStoreTelemetry store;
};

/// Executes analysis requests against lazily materialized, shared
/// per-(query, policy) optimizer contexts.
///
/// Each context owns the optimizer for one TPC-H query under one storage
/// layout plus the *shared, long-lived* memoizing CachingOracle that every
/// request against that pair probes through — the server's warm cache.
/// Per-request state (the Rng and a runtime::ProbeChain carrying the
/// request deadline) is stacked above the shared cache on each call, so
/// deadlines and faults stay request-local while computed cost points are
/// served from memory across requests and sessions.
///
/// Determinism: a response body is a pure function of the request and the
/// server options. Probe points are generated from a fixed seed, the cache
/// returns bit-identical replies no matter which request computed an entry
/// first, and bodies never include interleaving-dependent counters (cache
/// hits, oracle call totals) — those surface through stats() instead.
class Dispatcher {
 public:
  explicit Dispatcher(DispatcherOptions options);
  ~Dispatcher();  // out of line: QueryContext is incomplete here

  /// Executes one request. Never fails at the C++ level: every outcome is
  /// an AnalysisResponse whose code is kOk, kDeadlineExceeded (budget
  /// spent mid-analysis), or another typed error.
  AnalysisResponse Handle(const AnalysisRequest& request);

  /// Streaming form: every body piece (the prologue, then one record per
  /// plan or delta line) goes through `records` as a separate Write the
  /// moment it is produced. Returns the analysis status; on a non-OK
  /// status the records already written must be discarded by the consumer
  /// (the v2 terminal status frame is what tells a remote client to).
  /// Handle() is this over a StringSink — one rendering path for both
  /// protocol versions, byte-for-byte.
  [[nodiscard]] Status HandleStreaming(const AnalysisRequest& request,
                                       runtime::sink::Sink& records);

  DispatcherStats stats() const;

  /// Publishes every materialized context's cache to the snapshot store
  /// and saves it to disk (tmp + fsync + rename). No-op success when no
  /// cache_path was configured; typed error on I/O failure. Called by
  /// Server::Shutdown() so a clean shutdown leaves the next process warm.
  [[nodiscard]] Status PersistCache();

  const DispatcherOptions& options() const { return options_; }

 private:
  struct QueryContext;

  /// Returns the shared context for (query_number, policy), materializing
  /// it on first use.
  QueryContext& GetContext(uint16_t query_number,
                           storage::LayoutPolicy policy);

  [[nodiscard]] Status Render(const AnalysisRequest& request,
                              QueryContext& ctx, runtime::sink::Sink& out);

  DispatcherOptions options_;
  catalog::Catalog catalog_;
  /// Snapshot store behind every context's stack (null without
  /// cache_path). Declared before builder_ so the builder can point at it.
  std::unique_ptr<runtime::CacheStore> store_;
  runtime::OracleStackBuilder builder_;

  mutable std::mutex mu_;
  std::map<std::pair<uint16_t, int>, std::unique_ptr<QueryContext>> contexts_;
  uint64_t requests_ = 0;
  uint64_t failed_requests_ = 0;
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_DISPATCHER_H_
