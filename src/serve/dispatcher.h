#ifndef COSTSENSE_SERVE_DISPATCHER_H_
#define COSTSENSE_SERVE_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/discovery.h"
#include "core/feasible_region.h"
#include "core/vectors.h"
#include "exp/figure_runner.h"
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
  /// Seed of every request's probe stream. Fixed per server, so equal
  /// requests replay equal probe sequences — the determinism invariant —
  /// and the same as figure runs', so both analyze a pair alike.
  uint64_t seed = exp::kDiscoverySeed;
  /// Deadline applied when a request carries deadline_ns == 0.
  /// 0 = unlimited.
  uint64_t default_deadline_ns = 0;
  /// Optional deterministic fault injection between each request's retry
  /// tier and the shared cache, built only when faults.fault_rate > 0
  /// (tests drive deadline behaviour with latency faults on a
  /// ManualClock; production servers leave the rate at 0). Requests never
  /// retry: a failed probe fails the request.
  runtime::resilience::FaultInjectionOptions faults;
  /// Pool each request's optimizer work (discovery probes that miss the
  /// shared cache) fans out on; memoized probes and the LPs run on the
  /// request's thread. null uses the process-global pool.
  runtime::ThreadPool* pool = nullptr;
  /// Clock for deadlines and latency faults; null = real steady clock.
  runtime::resilience::Clock* clock = nullptr;
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
  /// Discovery runs: requests that probed their box through the oracle
  /// chain.
  uint64_t discoveries = 0;
  /// Requests answered from a context's discovery memo, with no probe.
  uint64_t discoveries_recalled = 0;
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
/// per-(query, policy) exp::PairContexts over the TPC-H catalog at scale
/// factor 100 (the paper's database size).
///
/// Each context owns the optimizer for one TPC-H query under one storage
/// layout plus the *shared, long-lived* memoizing CachingOracle that every
/// request against that pair probes through — the server's warm cache.
/// Per-request state (the Rng and a runtime::ProbeChain carrying the
/// request deadline) is stacked above the shared cache on each discovery,
/// so deadlines and faults stay request-local while computed cost points
/// are served from memory across requests and sessions.
///
/// Determinism: a response body is a pure function of the request and the
/// server options. Probe points are generated from a fixed seed, the cache
/// returns bit-identical replies no matter which request computed an entry
/// first, and bodies never include interleaving-dependent counters (cache
/// hits, oracle call totals) — those surface through stats() instead.
///
/// Discovery memo: a fault-free discovery is therefore a pure function of
/// (pair, box), so next to each context the dispatcher keeps the plans
/// the last kMemoBoxes such discoveries found, keyed by the exact bits of
/// the box. A request over a memoized box skips discovery and goes
/// straight to its LPs and records. A request deadline bounds the
/// discovery only: a memoized request runs no probe, so it cannot expire.
/// Only discoveries without a failed probe are memoized, so under fault
/// injection too a recalled body equals a fault-free one.
class Dispatcher {
 public:
  /// Discovery boxes memoized per context; the oldest inserted is evicted
  /// first. A band request's box is fixed by its widest delta, and
  /// loadgen's delta sets widen to 100 or 1000, so its warm serving mix
  /// needs 2 per context; 16 leaves room for explicit boxes at a lookup
  /// cost of at most 16 bit-wise box compares. Eviction ignores hits, so
  /// 16 one-off explicit boxes in a row push out a band box, which then
  /// discovers once more; no measured workload mixes them.
  static constexpr size_t kMemoBoxes = 16;

  explicit Dispatcher(DispatcherOptions options);

  /// Executes one request. Never fails at the C++ level: every outcome is
  /// an AnalysisResponse whose code is kOk, kDeadlineExceeded (budget
  /// spent mid-analysis), or another typed error.
  AnalysisResponse Handle(const AnalysisRequest& request);

  /// Streaming form: every body piece (the prologue, then one record per
  /// plan or delta line) goes through `records` as a separate Write the
  /// moment it is produced. Returns the analysis status; on a non-OK
  /// status the records already written must be discarded by the consumer
  /// (the terminal status frame is what tells a remote client to).
  /// Handle() is this over a StringSink — one rendering path for the wire
  /// and the in-process replay, byte-for-byte.
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
  /// What a fault-free discovery over one box found: the candidate plans
  /// in discovery order, their margins and the completeness verdict.
  /// Immutable once built, so requests share it without a lock.
  struct DiscoveredPlans {
    std::vector<core::PlanUsage> plans;
    std::vector<double> margins;
    bool complete = false;
  };
  using PlansRef = std::shared_ptr<const DiscoveredPlans>;

  /// One (query, policy) pair: the shared context and its discovery memo.
  struct Pair {
    Pair(const catalog::Catalog& catalog, query::Query query,
         storage::LayoutPolicy policy,
         const runtime::OracleStackBuilder& builder)
        : ctx(catalog, std::move(query), policy, builder) {}
    exp::PairContext ctx;
    /// Guards memo only: held around a find or an insert, never across
    /// discovery or a sink write.
    std::mutex memo_mu;
    /// (box, plans), oldest first; at most kMemoBoxes entries.
    std::vector<std::pair<core::Box, PlansRef>> memo;

    /// The memoized plans for a box with the same bounds, bit for bit, or
    /// null. The caller holds memo_mu.
    PlansRef FindLocked(const core::Box& box) const;
  };

  /// Returns the shared pair for (query_number, policy), materializing its
  /// context on first use.
  Pair& GetPair(uint16_t query_number, storage::LayoutPolicy policy);

  [[nodiscard]] Status Render(const AnalysisRequest& request, Pair& pair,
                              runtime::sink::Sink& out);

  /// Runs discovery over `box` through a per-request probe chain and
  /// stores a fault-free outcome in pair's memo. A failed probe fails the
  /// request (kDeadlineExceeded or kUnavailable).
  [[nodiscard]] Result<PlansRef> Discover(const AnalysisRequest& request,
                                          Pair& pair, const core::Box& box);

  DispatcherOptions options_;
  catalog::Catalog catalog_;
  /// Snapshot store behind every context's stack (null without
  /// cache_path). Declared before builder_ so the builder can point at it.
  std::unique_ptr<runtime::CacheStore> store_;
  runtime::OracleStackBuilder builder_;

  mutable std::mutex mu_;
  std::map<std::pair<uint16_t, int>, std::unique_ptr<Pair>> contexts_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failed_requests_{0};
  std::atomic<uint64_t> discoveries_{0};
  std::atomic<uint64_t> discoveries_recalled_{0};
};

}  // namespace costsense::serve

#endif  // COSTSENSE_SERVE_DISPATCHER_H_
