// Which discovery work reaches the thread pool. Only probes that run the
// optimizer fan out: probes the cache has memoized, white-box usage
// resolution and the LPs run on the calling thread. So a fully warmed
// discovery hands the pool's workers no loop, a half-warmed one still
// does, and in every case the discovered set is bit-identical to a serial
// run. A fault injector in the chain recalls nothing, so runs with faults
// schedule exactly as they did before memoized probes ran inline.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/discovery.h"
#include "exp/report.h"
#include "runtime/oracle_cache.h"
#include "runtime/oracle_stack.h"
#include "runtime/resilience/clock.h"
#include "runtime/thread_pool.h"
#include "tests/core/fake_oracle.h"

namespace costsense::runtime {
namespace {

constexpr size_t kDims = 4;
constexpr uint64_t kSeed = 0x5eed;

std::vector<core::PlanUsage> Plans() {
  Rng rng(29);
  std::vector<core::PlanUsage> plans;
  for (size_t p = 0; p < 12; ++p) {
    core::UsageVector u(kDims);
    for (size_t i = 0; i < kDims; ++i) u[i] = rng.LogUniform(1.0, 1e3);
    plans.push_back({"p" + std::to_string(p), std::move(u)});
  }
  return plans;
}

core::Box Band() {
  return core::Box::MultiplicativeBand(core::CostVector(kDims, 1.0), 100.0);
}

/// Forwards probes but hides Recall(), so every probe schedules as
/// optimizer work: discovery as it ran before memoized probes stayed on
/// the calling thread.
class HideRecall final : public core::FalliblePlanOracle {
 public:
  explicit HideRecall(core::FalliblePlanOracle& base) : base_(base) {}
  [[nodiscard]] Result<core::OracleResult> TryOptimize(
      const core::CostVector& c) override {
    return base_.TryOptimize(c);
  }
  size_t dims() const override { return base_.dims(); }

 private:
  core::FalliblePlanOracle& base_;
};

struct Outcome {
  core::DiscoveryResult result;
  /// Loops the discovery handed to the pool's workers.
  size_t tasks = 0;
  resilience::FaultLog faults;
};

Outcome Discover(CachingOracle& cache, ThreadPool* pool,
             const ProbeOptions& probe_options = {},
             bool hide_recall = false) {
  ProbeChain chain(cache, probe_options);
  HideRecall hidden(chain.oracle());
  core::FalliblePlanOracle& oracle =
      hide_recall ? static_cast<core::FalliblePlanOracle&>(hidden)
                  : chain.oracle();
  core::DiscoveryOptions options = exp::QuickDiscovery();
  options.pool = pool;
  Rng rng(kSeed);
  const size_t before = pool != nullptr ? pool->stats().tasks_run : 0;
  Result<core::DiscoveryResult> d =
      core::DiscoverCandidatePlans(oracle, Band(), rng, options);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  Outcome run;
  if (d.ok()) run.result = *d;
  if (pool != nullptr) run.tasks = pool->stats().tasks_run - before;
  run.faults = chain.telemetry().faults;
  return run;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameDiscovery(const core::DiscoveryResult& a,
                         const core::DiscoveryResult& b) {
  EXPECT_EQ(a.oracle_calls, b.oracle_calls);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.failed_probes, b.failed_probes);
  ASSERT_EQ(a.plans.size(), b.plans.size());
  for (size_t i = 0; i < a.plans.size(); ++i) {
    const core::DiscoveredPlan& pa = a.plans[i];
    const core::DiscoveredPlan& pb = b.plans[i];
    EXPECT_EQ(pa.plan.plan_id, pb.plan.plan_id);
    EXPECT_EQ(Bits(pa.margin), Bits(pb.margin)) << pa.plan.plan_id;
    EXPECT_EQ(pa.usage_from_least_squares, pb.usage_from_least_squares);
    ASSERT_EQ(pa.plan.usage.size(), pb.plan.usage.size());
    for (size_t d = 0; d < pa.plan.usage.size(); ++d) {
      EXPECT_EQ(Bits(pa.plan.usage[d]), Bits(pb.plan.usage[d]));
    }
    ASSERT_EQ(pa.witness.size(), pb.witness.size());
    for (size_t d = 0; d < pa.witness.size(); ++d) {
      EXPECT_EQ(Bits(pa.witness[d]), Bits(pb.witness[d]));
    }
  }
}

void ExpectSameFaultLog(const resilience::FaultLog& a,
                        const resilience::FaultLog& b) {
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.clean_calls, b.clean_calls);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.garbage_cost, b.garbage_cost);
  EXPECT_EQ(a.invalid_plan, b.invalid_plan);
  EXPECT_EQ(a.perturbed_calls, b.perturbed_calls);
  EXPECT_EQ(a.faulty_keys, b.faulty_keys);
}

/// The serial reference: a cold cache and no pool.
core::DiscoveryResult Reference(core::FakeOracle& base) {
  CachingOracle cold(base);
  return Discover(cold, nullptr).result;
}

TEST(SchedulingTest, WarmDiscoverySubmitsNoPoolTask) {
  core::FakeOracle base(Plans(), /*white_box=*/true);
  const core::DiscoveryResult reference = Reference(base);
  ASSERT_GT(reference.plans.size(), 2u);

  CachingOracle cache(base);
  ThreadPool pool4(4);
  ThreadPool pool1(1);
  const Outcome cold = Discover(cache, &pool4);
  EXPECT_GT(cold.tasks, 0u);  // misses run the optimizer on the pool
  ExpectSameDiscovery(cold.result, reference);

  const Outcome warm4 = Discover(cache, &pool4);
  EXPECT_EQ(warm4.tasks, 0u);
  ExpectSameDiscovery(warm4.result, reference);
  const Outcome warm1 = Discover(cache, &pool1);
  EXPECT_EQ(warm1.tasks, 0u);
  ExpectSameDiscovery(warm1.result, reference);
  ExpectSameDiscovery(Discover(cache, nullptr).result, reference);
}

TEST(SchedulingTest, HalfWarmDiscoveryFansOutOnlyTheMisses) {
  core::FakeOracle base(Plans(), /*white_box=*/true);
  const core::DiscoveryResult reference = Reference(base);
  std::vector<OracleCacheEntry> half;
  {
    CachingOracle warm(base);
    Discover(warm, nullptr);
    const std::vector<OracleCacheEntry> all = warm.Export();
    for (size_t i = 0; i < all.size(); i += 2) half.push_back(all[i]);
  }
  ASSERT_GT(half.size(), 1u);

  ThreadPool pool4(4);
  ThreadPool pool1(1);
  for (ThreadPool* pool : {&pool4, &pool1, static_cast<ThreadPool*>(nullptr)}) {
    CachingOracle cache(base);
    ASSERT_EQ(cache.Import(half).inserted, half.size());
    const Outcome run = Discover(cache, pool);
    if (pool == &pool4) {
      EXPECT_GT(run.tasks, 0u);
    }
    ExpectSameDiscovery(run.result, reference);
  }
}

TEST(SchedulingTest, FaultInjectorSchedulesEveryProbeOnThePool) {
  core::FakeOracle base(Plans(), /*white_box=*/true);
  const core::DiscoveryResult reference = Reference(base);
  resilience::ManualClock clock;
  ProbeOptions faulty;
  faulty.faults.fault_rate = 0.2;
  faulty.retry.max_retries = faulty.faults.max_burst + 1;  // all absorbed
  faulty.clock = &clock;

  ThreadPool pool4(4);
  CachingOracle cache(base);
  const Outcome cold = Discover(cache, &pool4, faulty);
  ASSERT_GT(cold.faults.faults, 0u);
  ExpectSameDiscovery(cold.result, reference);

  // Even over a fully warm cache, nothing above the injector is memoized.
  {
    ProbeChain chain(cache, faulty);
    core::RecalledReply recalled;
    EXPECT_TRUE(cache.Recall(Band().Center(), recalled));
    EXPECT_FALSE(chain.oracle().Recall(Band().Center(), recalled));
  }
  const Outcome warm = Discover(cache, &pool4, faulty);
  const Outcome unrecalled =
      Discover(cache, &pool4, faulty, /*hide_recall=*/true);
  EXPECT_GT(warm.tasks, 0u);
  EXPECT_EQ(warm.tasks, unrecalled.tasks);
  ExpectSameFaultLog(warm.faults, unrecalled.faults);
  ExpectSameFaultLog(warm.faults, cold.faults);
  ExpectSameDiscovery(warm.result, reference);
  ExpectSameDiscovery(unrecalled.result, reference);
}

}  // namespace
}  // namespace costsense::runtime
