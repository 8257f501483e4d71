#ifndef COSTSENSE_RUNTIME_ORACLE_STACK_H_
#define COSTSENSE_RUNTIME_ORACLE_STACK_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/oracle.h"
#include "runtime/cache_store.h"
#include "runtime/oracle_cache.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/resilience/resilient_oracle.h"

namespace costsense::runtime {

/// The oracle decorator chain every driver probes through:
///
///   drivers -> ResilientOracle -> [FaultInjectingOracle] -> CachingOracle
///           -> base (e.g. blackbox::NarrowOptimizer)
///
/// It comes in two halves with different lifetimes. OracleStack owns the
/// memoizing tier (and its persistence scope); a figure run builds one per
/// (query, layout) pair, the server one per shared context. ProbeChain is
/// the fallible half stacked above that cache: a figure run builds one per
/// pair, the server one per request, so deadlines and faults stay local
/// while computed cost points are shared.
///
/// Faults are injected *above* the cache: a retried probe re-enters the
/// injector (consuming its burst) and then lands on the warm cache, so
/// retries cost no optimizer invocations and the cache only ever holds
/// clean replies. This order is what makes figure output byte-identical
/// under absorbed faults, and this file is the one place it is encoded.
///
/// The base oracle is not owned and must outlive the stack. Every layer
/// also remains individually constructible (CachingOracle,
/// FaultInjectingOracle, ResilientOracle) for targeted tests.
class OracleStack {
 public:
  OracleStack(OracleStack&&) = default;
  OracleStack& operator=(OracleStack&&) = default;

  /// The memoizing tier.
  CachingOracle& cache() { return *cache_; }
  const CachingOracle& cache() const { return *cache_; }

  /// Publishes the cache's current contents back to the persistence scope
  /// this stack was built with (no-op for stacks built without a store).
  /// The store batches scopes in memory; CacheStore::Save() writes disk.
  void PublishToStore();

 private:
  friend class OracleStackBuilder;
  OracleStack() = default;

  std::unique_ptr<CachingOracle> cache_;
  CacheStore* store_ = nullptr;  // not owned
  std::string scope_;
};

/// Assembles OracleStacks from explicit options. One builder can stamp out
/// many per-query stacks (Build is const).
class OracleStackBuilder {
 public:
  OracleStackBuilder() = default;

  /// Sizing for the memoizing tier.
  OracleStackBuilder& WithCache(const OracleCacheOptions& options);

  /// Attaches a snapshot store (not owned; may be null to detach).
  /// Stacks built with a non-empty scope import the store's entries for
  /// that scope at Build time (the warm start) and can publish back via
  /// OracleStack::PublishToStore().
  OracleStackBuilder& WithStore(CacheStore* store);

  OracleStack Build(core::PlanOracle& base) const;

  /// Builds a stack bound to persistence scope `scope` (e.g. "Q6/shared").
  /// Identical to Build(base) when no store is attached.
  OracleStack Build(core::PlanOracle& base, std::string_view scope) const;

 private:
  OracleCacheOptions cache_;
  CacheStore* store_ = nullptr;  // not owned
};

/// Tuning for a ProbeChain.
struct ProbeOptions {
  /// Fault injection between the retry tier and the cache. The injector
  /// is built only when faults.fault_rate > 0.
  resilience::FaultInjectionOptions faults;
  resilience::ResilientOracleOptions retry;
  /// Clock for latency faults, backoff and the run deadline; null = real
  /// steady clock (tests inject a ManualClock).
  resilience::Clock* clock = nullptr;
};

/// One snapshot of the probe chain's counters. The fault log stays zero
/// when no injector was built.
struct ProbeTelemetry {
  resilience::ResilienceStats resilience;
  resilience::FaultLog faults;
};

/// The fallible half of the chain, stacked above a cache:
/// ResilientOracle over a FaultInjectingOracle (when faults.fault_rate > 0)
/// over `cache`. Without faults the retry tier sees a cache that cannot
/// fail, so every call is one attempt with the cache's reply.
class ProbeChain {
 public:
  /// `cache` is not owned and must outlive the chain.
  ProbeChain(CachingOracle& cache, const ProbeOptions& options);

  /// Top of the chain: the oracle drivers probe.
  core::FalliblePlanOracle& oracle() { return *resilient_; }

  /// Snapshot of the retry tier's counters and the injector's fault log.
  ProbeTelemetry telemetry() const;

 private:
  std::unique_ptr<core::InfallibleOracleAdapter> adapter_;      // no faults
  std::unique_ptr<resilience::FaultInjectingOracle> injector_;  // faults
  std::unique_ptr<resilience::ResilientOracle> resilient_;
};

}  // namespace costsense::runtime

#endif  // COSTSENSE_RUNTIME_ORACLE_STACK_H_
