// The resilience layer's contracts: seeded fault injection is
// deterministic at any thread count and probe order, bounded retry absorbs
// fault bursts byte-identically, exhausted budgets degrade with exact
// accounting (driver-side degraded counts reconcile against the injector's
// own fault log).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/discovery.h"
#include "core/feasible_region.h"
#include "core/oracle.h"
#include "core/usage_extraction.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/fault_injector.h"
#include "runtime/resilience/resilient_oracle.h"
#include "runtime/thread_pool.h"
#include "tests/core/fake_oracle.h"

namespace costsense::runtime::resilience {
namespace {

using core::Box;
using core::CostVector;
using core::FakeOracle;
using core::OracleResult;
using core::PlanUsage;
using core::UsageVector;

std::vector<PlanUsage> MakePlans(size_t dims, size_t count) {
  Rng rng(0x9a5u ^ 42u);
  std::vector<PlanUsage> plans;
  for (size_t p = 0; p < count; ++p) {
    PlanUsage plan;
    plan.plan_id = "plan-" + std::to_string(p);
    plan.usage = UsageVector(dims);
    for (size_t d = 0; d < dims; ++d) {
      plan.usage[d] = rng.Uniform(0.1, 2.0);
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<CostVector> MakeProbePoints(const Box& box, size_t count) {
  Rng rng(777);
  std::vector<CostVector> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back(box.SampleLogUniform(rng));
  }
  return points;
}

TEST(ManualClockTest, AdvancesOnlyOnSleepOrAdvance) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100u);
  EXPECT_EQ(clock.NowNanos(), 100u);
  clock.SleepFor(50);
  EXPECT_EQ(clock.NowNanos(), 150u);
  clock.Advance(8);
  EXPECT_EQ(clock.NowNanos(), 158u);
}

TEST(FaultInjectorTest, BurstsAreDeterministicPerKeyAndReplayAfterReset) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  FaultInjectionOptions options;
  options.fault_rate = 1.0;  // every key bursts, capped at max_burst
  options.max_burst = 3;
  FaultInjectingOracle injector(base, options);

  const CostVector c = {1.0, 2.0, 3.0};
  std::vector<bool> first;
  for (int i = 0; i < 6; ++i) first.push_back(injector.TryOptimize(c).ok());
  // Exactly the first max_burst attempts fault, every later attempt is
  // clean.
  EXPECT_EQ(first, (std::vector<bool>{false, false, false, true, true, true}));

  injector.Reset();
  std::vector<bool> second;
  for (int i = 0; i < 6; ++i) second.push_back(injector.TryOptimize(c).ok());
  EXPECT_EQ(first, second);
}

TEST(FaultInjectorTest, FaultLogIsIndependentOfOrderAndThreadCount) {
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);
  const std::vector<CostVector> points = MakeProbePoints(box, 200);

  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  FaultInjectionOptions options;
  options.fault_rate = 0.3;
  FaultInjectingOracle injector(base, options);

  for (const CostVector& c : points) (void)injector.TryOptimize(c);
  const FaultLog serial = injector.log();
  EXPECT_GT(serial.faults, 0u);
  EXPECT_EQ(serial.calls, points.size());

  injector.Reset();
  ThreadPool pool(3);
  // Reverse order, concurrent: the log must not notice.
  (void)pool.ParallelFor(points.size(), [&](size_t i) {
    (void)injector.TryOptimize(points[points.size() - 1 - i]);
    return Status::Ok();
  });
  const FaultLog parallel = injector.log();
  EXPECT_EQ(serial.calls, parallel.calls);
  EXPECT_EQ(serial.faults, parallel.faults);
  EXPECT_EQ(serial.transient, parallel.transient);
  EXPECT_EQ(serial.faulty_keys, parallel.faulty_keys);
  EXPECT_EQ(serial.clean_calls, parallel.clean_calls);
}

TEST(FaultInjectorTest, FaultKindsFollowTheConfiguredWeights) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  const CostVector c = {1.0, 2.0, 3.0};

  {  // Garbage cost: a reply arrives, but its total cost is non-finite.
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    options.weight_transient = 0.0;
    options.weight_garbage_cost = 1.0;
    FaultInjectingOracle injector(base, options);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(std::isfinite(r->total_cost));
    EXPECT_EQ(injector.log().garbage_cost, 1u);
  }
  {  // Invalid plan id: the reply's plan id is empty (stale handle).
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    options.weight_transient = 0.0;
    options.weight_invalid_plan = 1.0;
    FaultInjectingOracle injector(base, options);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->plan_id.empty());
  }
  {  // Transient: a typed kUnavailable error, no reply at all.
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    FaultInjectingOracle injector(base, options);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  {  // Latency: a clean reply whose service time is charged to the clock.
    ManualClock clock;
    FaultInjectionOptions options;
    options.fault_rate = 1.0;
    options.weight_transient = 0.0;
    options.weight_latency = 1.0;
    options.latency_nanos = 5000;
    FaultInjectingOracle injector(base, options, &clock);
    const Result<OracleResult> r = injector.TryOptimize(c);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->plan_id.empty());
    EXPECT_EQ(clock.NowNanos(), 5000u);
  }
}

TEST(ResilientOracleTest, RetryBudgetAbsorbsBurstsByteIdentically) {
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);
  const std::vector<CostVector> points = MakeProbePoints(box, 64);
  const std::vector<PlanUsage> plans = MakePlans(3, 4);

  FakeOracle clean(plans, /*white_box=*/false);
  FakeOracle faulted(plans, /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 1.0;  // worst case: every key bursts max_burst deep
  faults.max_burst = 3;
  FaultInjectingOracle injector(faulted, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 5;  // > max_burst, so recovery is guaranteed
  ResilientOracle resilient(injector, retry, &clock);

  for (const CostVector& c : points) {
    const OracleResult want = clean.Optimize(c);
    const Result<OracleResult> got = resilient.TryOptimize(c);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->plan_id, want.plan_id);
    EXPECT_EQ(got->total_cost, want.total_cost);  // bitwise, not approximate
  }
  const ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.calls, points.size());
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.recovered, points.size());
  EXPECT_EQ(stats.retries, 3 * points.size());
  EXPECT_GT(stats.backoff_waited_ns, 0u);
}

TEST(ResilientOracleTest, ZeroRetryBudgetSurfacesEveryFaultExactly) {
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);
  const std::vector<CostVector> points = MakeProbePoints(box, 200);

  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  FaultInjectionOptions faults;
  faults.fault_rate = 0.3;
  FaultInjectingOracle injector(base, faults);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  ResilientOracle resilient(injector, retry);

  for (const CostVector& c : points) (void)resilient.TryOptimize(c);

  // The degraded-accounting identity: with no retries, each injected fault
  // event is exactly one surfaced failure.
  const ResilienceStats stats = resilient.stats();
  const FaultLog log = injector.log();
  EXPECT_GT(log.faults, 0u);
  EXPECT_EQ(stats.failures, log.faults);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.calls, points.size());
}

TEST(ResilientOracleTest, ValidationConvertsGarbageRepliesToTypedErrors) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  const CostVector c = {1.0, 2.0, 3.0};

  {
    FaultInjectionOptions faults;
    faults.fault_rate = 1.0;
    faults.weight_transient = 0.0;
    faults.weight_garbage_cost = 1.0;
    FaultInjectingOracle injector(base, faults);
    ResilientOracleOptions retry;
    retry.max_retries = 0;
    ResilientOracle resilient(injector, retry);
    const Result<OracleResult> r = resilient.TryOptimize(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("non-finite"), std::string::npos);
    EXPECT_EQ(resilient.stats().invalid_replies, 1u);
  }
  {
    FaultInjectionOptions faults;
    faults.fault_rate = 1.0;
    faults.weight_transient = 0.0;
    faults.weight_invalid_plan = 1.0;
    FaultInjectingOracle injector(base, faults);
    ResilientOracleOptions retry;
    retry.max_retries = 0;
    ResilientOracle resilient(injector, retry);
    const Result<OracleResult> r = resilient.TryOptimize(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("plan id"), std::string::npos);
  }
}

TEST(ResilientOracleTest, PerCallDeadlineDiscardsSlowRepliesThenRecovers) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 1.0;
  faults.max_burst = 1;
  faults.weight_transient = 0.0;
  faults.weight_latency = 1.0;
  faults.latency_nanos = 10'000;
  FaultInjectingOracle injector(base, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 2;
  retry.per_call_deadline_ns = 1000;  // slower replies are discarded
  ResilientOracle resilient(injector, retry, &clock);

  const Result<OracleResult> r = resilient.TryOptimize({1.0, 2.0, 3.0});
  ASSERT_TRUE(r.ok());  // the burst is 1 deep; the retry lands clean
  const ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST(ResilientOracleTest, RunBudgetFailsFastAndResets) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  ManualClock clock;
  FaultInjectingOracle injector(base, FaultInjectionOptions{});  // no faults
  ResilientOracleOptions retry;
  retry.run_deadline_ns = 1000;
  ResilientOracle resilient(injector, retry, &clock);

  clock.Advance(5000);  // the sweep's budget is long spent
  const Result<OracleResult> r1 = resilient.TryOptimize({1.0, 2.0, 3.0});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resilient.stats().attempts, 0u);  // failed fast, no base call

  resilient.ResetBudget();
  const Result<OracleResult> r2 = resilient.TryOptimize({1.0, 2.0, 3.0});
  EXPECT_TRUE(r2.ok());
}

TEST(ResilientOracleTest, BreakerOpensShortCircuitsAndHalfOpens) {
  FakeOracle base(MakePlans(3, 4), /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 1.0;
  faults.max_burst = 1000;  // effectively always faulting
  FaultInjectingOracle injector(base, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  retry.breaker_threshold = 2;
  retry.breaker_cooldown_ns = 1000;
  retry.backoff_base_ns = 0;
  ResilientOracle resilient(injector, retry, &clock);

  const CostVector c = {1.0, 2.0, 3.0};
  EXPECT_FALSE(resilient.TryOptimize(c).ok());
  EXPECT_FALSE(resilient.TryOptimize(c).ok());  // second failure trips it
  EXPECT_EQ(resilient.stats().breaker_trips, 1u);

  const Result<OracleResult> shorted = resilient.TryOptimize(c);
  ASSERT_FALSE(shorted.ok());
  EXPECT_EQ(shorted.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(resilient.stats().breaker_short_circuits, 1u);
  EXPECT_EQ(resilient.stats().attempts, 2u);  // open = no base traffic

  clock.Advance(2000);  // past the cooldown: one probe is let through
  EXPECT_FALSE(resilient.TryOptimize(c).ok());
  EXPECT_EQ(resilient.stats().attempts, 3u);      // the half-open probe ran
  EXPECT_EQ(resilient.stats().breaker_trips, 2u);  // and re-opened it
}

TEST(ResilientOracleTest, BackoffScheduleIsDeterministic) {
  const std::vector<PlanUsage> plans = MakePlans(3, 4);
  auto run = [&plans]() {
    FakeOracle base(plans, /*white_box=*/false);
    ManualClock clock;
    FaultInjectionOptions faults;
    faults.fault_rate = 1.0;
    FaultInjectingOracle injector(base, faults, &clock);
    ResilientOracleOptions retry;
    retry.max_retries = 5;
    ResilientOracle resilient(injector, retry, &clock);
    (void)resilient.TryOptimize({1.0, 2.0, 3.0});
    (void)resilient.TryOptimize({3.0, 2.0, 1.0});
    return resilient.stats().backoff_waited_ns;
  };
  const uint64_t first = run();
  const uint64_t second = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Degradation-aware discovery.

core::DiscoveryOptions SmallDiscoveryOptions() {
  core::DiscoveryOptions options;
  options.random_samples = 8;
  options.bisection_depth = 2;
  options.completeness_rounds = 1;
  return options;
}

TEST(ResilientDiscoveryTest, NarrowModeEquivalentWhenRetriesAbsorbFaults) {
  const std::vector<PlanUsage> plans = MakePlans(3, 4);
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);

  FakeOracle clean(plans, /*white_box=*/false);
  Rng rng_clean(123);
  const Result<core::DiscoveryResult> want = core::DiscoverCandidatePlans(
      clean, box, rng_clean, SmallDiscoveryOptions());
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->plans.size(), 1u);

  FakeOracle base(plans, /*white_box=*/false);
  ManualClock clock;
  FaultInjectionOptions faults;
  faults.fault_rate = 0.3;
  faults.max_burst = 3;
  FaultInjectingOracle injector(base, faults, &clock);
  ResilientOracleOptions retry;
  retry.max_retries = 5;
  ResilientOracle resilient(injector, retry, &clock);
  Rng rng_faulted(123);
  const Result<core::DiscoveryResult> got = core::DiscoverCandidatePlans(
      resilient, box, rng_faulted, SmallDiscoveryOptions());
  ASSERT_TRUE(got.ok());

  // Retries absorb every burst, so the discovered set — witnesses, ids,
  // and the least-squares-extracted usage vectors — is bitwise identical.
  EXPECT_EQ(got->failed_probes, 0u);
  ASSERT_EQ(got->plans.size(), want->plans.size());
  for (size_t i = 0; i < want->plans.size(); ++i) {
    EXPECT_EQ(got->plans[i].plan.plan_id, want->plans[i].plan.plan_id);
    EXPECT_EQ(got->plans[i].plan.usage, want->plans[i].plan.usage);
    EXPECT_EQ(got->plans[i].witness, want->plans[i].witness);
    EXPECT_EQ(got->plans[i].usage_from_least_squares,
              want->plans[i].usage_from_least_squares);
  }
  EXPECT_GT(injector.log().faults, 0u);  // faults really were injected
  EXPECT_GT(resilient.stats().recovered, 0u);
}

TEST(ResilientDiscoveryTest, ZeroBudgetDegradationReconcilesWithFaultLog) {
  const std::vector<PlanUsage> plans = MakePlans(3, 4);
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 100.0);

  FakeOracle base(plans, /*white_box=*/false);
  FaultInjectionOptions faults;
  faults.fault_rate = 0.2;
  FaultInjectingOracle injector(base, faults);
  ResilientOracleOptions retry;
  retry.max_retries = 0;
  ResilientOracle resilient(injector, retry);
  Rng rng(123);
  const Result<core::DiscoveryResult> d = core::DiscoverCandidatePlans(
      resilient, box, rng, SmallDiscoveryOptions());
  ASSERT_TRUE(d.ok());  // degraded, not dead

  const FaultLog log = injector.log();
  EXPECT_GT(log.faults, 0u);
  EXPECT_EQ(d->failed_probes, log.faults);
  EXPECT_EQ(d->failed_probes, resilient.stats().failures);
}

// ---------------------------------------------------------------------------
// Extraction under bounded optimizer noise (property test) and
// rank-deficiency.

TEST(NoisyExtractionTest, RecoversUsageWithinToleranceUnderBoundedNoise) {
  // pA's region of influence is ample around its witness; a persistent
  // per-key relative cost perturbation of 0.5% must not move the
  // least-squares estimate more than a few percent.
  const std::vector<PlanUsage> plans = {
      {"pA", {1.0, 0.2, 0.2}},
      {"pB", {0.2, 1.0, 0.2}},
      {"pC", {0.2, 0.2, 1.0}},
  };
  const Box box = Box::MultiplicativeBand({1.0, 1.0, 1.0}, 4.0);
  const CostVector seed_point = {0.25, 2.0, 2.0};  // deep inside pA's region

  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    FakeOracle base(plans, /*white_box=*/false);
    FaultInjectionOptions faults;
    faults.perturb_rate = 1.0;  // every key carries bounded noise
    faults.perturb_rel_error = 0.005;
    faults.seed = 0xFA17FA17 + seed;
    FaultInjectingOracle injector(base, faults);

    Rng rng(1000 + seed);
    core::ExtractionTelemetry telemetry;
    const Result<core::ExtractedUsage> got = core::ExtractUsageVector(
        injector, "pA", seed_point, box, rng, core::ExtractionOptions{},
        &telemetry);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->usage.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(got->usage[i], plans[0].usage[i], 0.05)
          << "seed " << seed << " component " << i;
    }
    EXPECT_GT(injector.log().perturbed_calls, 0u);
    EXPECT_EQ(telemetry.failed_probes, 0u);
  }
}

TEST(NoisyExtractionTest, RankDeficientProbeMatrixIsATypedError) {
  const std::vector<PlanUsage> plans = MakePlans(3, 3);
  // A degenerate (zero-volume) box collapses every jittered sample onto
  // the seed point: the probe matrix has rank 1 and the fit must refuse.
  const Box box({2.0, 2.0, 2.0}, {2.0, 2.0, 2.0});
  const CostVector seed_point = {2.0, 2.0, 2.0};
  FakeOracle base(plans, /*white_box=*/false);
  const std::string plan_at_seed = base.Optimize(seed_point).plan_id;

  core::InfallibleOracleAdapter adapter(base);
  Rng rng(7);
  core::ExtractionTelemetry telemetry;
  const Result<core::ExtractedUsage> got = core::ExtractUsageVector(
      adapter, plan_at_seed, seed_point, box, rng, core::ExtractionOptions{},
      &telemetry);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("unusable"), std::string::npos);
  EXPECT_GT(telemetry.oracle_calls, 0u);  // telemetry filled despite error
}

}  // namespace
}  // namespace costsense::runtime::resilience
