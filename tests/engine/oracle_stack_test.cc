// Tests of the oracle stack and the probe chain above it: which tiers get
// built, and the one ordering property the chain exists to encode —
// faults are injected *above* the cache, so retries re-enter the injector
// but never cost an extra base-optimizer call, and the cache only ever
// holds clean replies.
#include "runtime/oracle_stack.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/core/fake_oracle.h"

namespace costsense::runtime {
namespace {

std::vector<core::PlanUsage> TwoPlans() {
  return {{"scan", core::UsageVector{10.0, 1.0}},
          {"index", core::UsageVector{1.0, 10.0}}};
}

TEST(OracleStackTest, CacheServesRepeatedProbes) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);

  const core::CostVector probe{1.0, 2.0};
  const core::OracleResult first = stack.cache().Optimize(probe);
  const core::OracleResult second = stack.cache().Optimize(probe);
  EXPECT_EQ(first.plan_id, second.plan_id);
  EXPECT_EQ(base.calls(), 1u);  // second probe served from the cache

  const OracleCacheStats stats = stack.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(OracleStackTest, WithCacheSizingIsApplied) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleCacheOptions options;
  options.shards = 1;
  options.max_entries = 2;
  OracleStack stack = OracleStackBuilder().WithCache(options).Build(base);
  // Three distinct probes through a 2-entry cache must evict.
  for (double x : {1.0, 2.0, 3.0}) {
    (void)stack.cache().Optimize(core::CostVector{x, 1.0});
  }
  const OracleCacheStats stats = stack.cache().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(ProbeChainTest, FaultFreeChainIsOneAttemptPerCall) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);
  ProbeChain probes(stack.cache(), ProbeOptions{});

  const core::CostVector probe{1.0, 2.0};
  for (int i = 0; i < 2; ++i) {
    const Result<core::OracleResult> reply = probes.oracle().TryOptimize(probe);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->plan_id, stack.cache().Optimize(probe).plan_id);
  }
  const ProbeTelemetry telemetry = probes.telemetry();
  EXPECT_EQ(telemetry.resilience.calls, 2u);
  EXPECT_EQ(telemetry.resilience.attempts, 2u);
  EXPECT_EQ(telemetry.resilience.retries, 0u);
  EXPECT_EQ(telemetry.resilience.failures, 0u);
  // fault_rate 0 builds no injector: its log never sees a call.
  EXPECT_EQ(telemetry.faults.calls, 0u);
  EXPECT_EQ(base.calls(), 1u);
}

TEST(ProbeChainTest, FaultsInjectAboveTheCacheSoRetriesAreFree) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);

  ProbeOptions options;
  options.faults.fault_rate = 1.0;  // every key starts a burst
  options.faults.max_burst = 2;
  options.faults.weight_transient = 1.0;
  options.retry.max_retries = 5;  // budget > burst: recovery is guaranteed
  ProbeChain probes(stack.cache(), options);

  const core::CostVector probe{1.0, 2.0};
  const Result<core::OracleResult> reply = probes.oracle().TryOptimize(probe);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  ProbeTelemetry telemetry = probes.telemetry();
  // The burst consumed two faulting attempts, then the clean attempt fell
  // through the injector onto the (cold) cache exactly once.
  EXPECT_EQ(telemetry.faults.faults, 2u);
  EXPECT_EQ(telemetry.resilience.calls, 1u);
  EXPECT_EQ(telemetry.resilience.attempts, 3u);
  EXPECT_EQ(telemetry.resilience.retries, 2u);
  EXPECT_EQ(telemetry.resilience.failures, 0u);
  EXPECT_EQ(stack.cache().stats().misses, 1u);
  EXPECT_EQ(base.calls(), 1u);  // faults never reached the base optimizer

  // Same key again: the burst is spent, the cache is warm — no new fault,
  // no new base call.
  const Result<core::OracleResult> again = probes.oracle().TryOptimize(probe);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->plan_id, reply->plan_id);
  telemetry = probes.telemetry();
  EXPECT_EQ(telemetry.faults.faults, 2u);
  EXPECT_EQ(stack.cache().stats().hits, 1u);
  EXPECT_EQ(base.calls(), 1u);
}

TEST(ProbeChainTest, ExhaustedRetryBudgetSurfacesTypedFailure) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  OracleStack stack = OracleStackBuilder().Build(base);
  ProbeOptions options;
  options.faults.fault_rate = 1.0;
  options.faults.max_burst = 3;
  options.retry.max_retries = 1;  // 2 attempts < burst of 3: the call fails
  ProbeChain probes(stack.cache(), options);

  const Result<core::OracleResult> reply =
      probes.oracle().TryOptimize(core::CostVector{1.0, 2.0});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(probes.telemetry().resilience.failures, 1u);
  EXPECT_EQ(base.calls(), 0u);  // the fault tier absorbed every attempt
}

TEST(OracleStackTest, OneBuilderStampsOutIndependentStacks) {
  core::FakeOracle base(TwoPlans(), /*white_box=*/true);
  const OracleStackBuilder builder;
  OracleStack a = builder.Build(base);
  OracleStack b = builder.Build(base);
  const core::CostVector probe{1.0, 2.0};
  (void)a.cache().Optimize(probe);
  (void)b.cache().Optimize(probe);
  // Separate per-query stacks do not share cache state.
  EXPECT_EQ(a.cache().stats().misses, 1u);
  EXPECT_EQ(b.cache().stats().misses, 1u);
  EXPECT_EQ(base.calls(), 2u);
}

}  // namespace
}  // namespace costsense::runtime
