#include "runtime/oracle_stack.h"

namespace costsense::runtime {

void OracleStack::PublishToStore() {
  if (store_ == nullptr || scope_.empty()) return;
  store_->Publish(scope_, cache_->Export());
}

OracleStackBuilder& OracleStackBuilder::WithCache(
    const OracleCacheOptions& options) {
  cache_ = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::WithStore(CacheStore* store) {
  store_ = store;
  return *this;
}

OracleStack OracleStackBuilder::Build(core::PlanOracle& base) const {
  return Build(base, std::string_view());
}

OracleStack OracleStackBuilder::Build(core::PlanOracle& base,
                                      std::string_view scope) const {
  OracleStack stack;
  stack.cache_ = std::make_unique<CachingOracle>(base, cache_);
  if (store_ != nullptr && !scope.empty()) {
    stack.store_ = store_;
    stack.scope_ = std::string(scope);
    // The warm start. Imported entries were computed at their keys'
    // canonical points, so a warm sweep returns bit-identical results —
    // it just skips the optimizer invocations.
    (void)stack.cache_->Import(store_->EntriesFor(scope));
  }
  return stack;
}

ProbeChain::ProbeChain(CachingOracle& cache, const ProbeOptions& options) {
  core::FalliblePlanOracle* below = nullptr;
  if (options.faults.fault_rate > 0.0) {
    injector_ = std::make_unique<resilience::FaultInjectingOracle>(
        cache, options.faults, options.clock);
    below = injector_.get();
  } else {
    adapter_ = std::make_unique<core::InfallibleOracleAdapter>(cache);
    below = adapter_.get();
  }
  resilient_ = std::make_unique<resilience::ResilientOracle>(
      *below, options.retry, options.clock);
}

ProbeTelemetry ProbeChain::telemetry() const {
  ProbeTelemetry t;
  t.resilience = resilient_->stats();
  if (injector_ != nullptr) t.faults = injector_->log();
  return t;
}

}  // namespace costsense::runtime
