// Tests for the paper's Section 6 algorithms: worst-case analysis by
// vertex sweep and LP, least-squares usage extraction through a narrow
// interface, and candidate-plan discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "core/discovery.h"
#include "core/relative_cost.h"
#include "core/usage_extraction.h"
#include "core/worst_case.h"
#include "tests/core/fake_oracle.h"

namespace costsense::core {
namespace {

std::vector<PlanUsage> RandomFrontier(Rng& rng, size_t n, size_t count) {
  std::vector<PlanUsage> plans;
  for (size_t p = 0; p < count; ++p) {
    UsageVector u(n);
    for (size_t i = 0; i < n; ++i) {
      u[i] = rng.Uniform() < 0.2 ? 0.0 : rng.LogUniform(1.0, 1e4);
    }
    if (u.Sum() == 0.0) u[0] = 1.0;
    plans.push_back({"p" + std::to_string(p), std::move(u)});
  }
  return plans;
}

TEST(WorstCaseTest, ExampleOneReachesDeltaSquared) {
  // Paper Example 1 through the full machinery: initial plan A=(1,0) is
  // optimal at the center; at delta the worst-case GTC is delta^2.
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 0.0}},
                                        {"b", UsageVector{0.0, 1.0}}};
  FakeOracle oracle(plans, /*white_box=*/true);
  const double delta = 50.0;
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, delta);

  const Result<WorstCaseResult> sweep =
      WorstCaseByVertexSweep(oracle, plans[0].usage, box);
  ASSERT_TRUE(sweep.ok());
  EXPECT_NEAR(sweep->gtc, delta * delta, 1e-6);
  EXPECT_EQ(sweep->worst_rival, "b");

  const WorstCaseResult direct =
      WorstCaseOverPlansByVertices(plans[0].usage, plans, box);
  EXPECT_NEAR(direct.gtc, delta * delta, 1e-6);

  const Result<WorstCaseResult> lp =
      WorstCaseOverPlansByLp(plans[0].usage, plans, box);
  ASSERT_TRUE(lp.ok());
  EXPECT_NEAR(lp->gtc, delta * delta, 1e-4 * delta * delta);
}

TEST(WorstCaseTest, AllMethodsAgreeOnRandomInstances) {
  Rng rng(41);
  for (int t = 0; t < 30; ++t) {
    const size_t n = 2 + rng.Index(4);
    const auto plans = RandomFrontier(rng, n, 3 + rng.Index(5));
    CostVector base(n);
    for (size_t i = 0; i < n; ++i) base[i] = rng.LogUniform(0.01, 10.0);
    const Box box = Box::MultiplicativeBand(base, rng.LogUniform(1.5, 100.0));
    const size_t init = OptimalPlanIndex(plans, box.Center());

    FakeOracle oracle(plans, true);
    const Result<WorstCaseResult> sweep =
        WorstCaseByVertexSweep(oracle, plans[init].usage, box);
    ASSERT_TRUE(sweep.ok());
    const WorstCaseResult direct =
        WorstCaseOverPlansByVertices(plans[init].usage, plans, box);
    const Result<WorstCaseResult> lp =
        WorstCaseOverPlansByLp(plans[init].usage, plans, box);
    ASSERT_TRUE(lp.ok());

    EXPECT_NEAR(sweep->gtc, direct.gtc, 1e-9 * direct.gtc);
    EXPECT_NEAR(lp->gtc, direct.gtc, 1e-6 * direct.gtc);
  }
}

TEST(WorstCaseTest, GtcOneWhenInitialAlwaysOptimal) {
  const std::vector<PlanUsage> plans = {{"only", UsageVector{1.0, 2.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 100.0);
  const WorstCaseResult r =
      WorstCaseOverPlansByVertices(plans[0].usage, plans, box);
  EXPECT_DOUBLE_EQ(r.gtc, 1.0);
}

TEST(WorstCaseTest, SweepRefusesHugeDimension) {
  std::vector<PlanUsage> plans = {{"a", UsageVector(25, 1.0)}};
  FakeOracle oracle(plans, true);
  const Box box = Box::MultiplicativeBand(CostVector(25, 1.0), 10.0);
  EXPECT_EQ(WorstCaseByVertexSweep(oracle, plans[0].usage, box)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExtractionTest, RecoversUsageThroughNarrowInterface) {
  // The oracle hides usage vectors; extraction must recover them from
  // (cost vector, total cost) pairs, the paper's Section 6.1.1 method.
  Rng rng(43);
  const std::vector<PlanUsage> plans = {
      {"a", UsageVector{100.0, 3.0, 0.0}},
      {"b", UsageVector{1.0, 50.0, 10.0}},
  };
  FakeOracle oracle(plans, /*white_box=*/false);
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0, 1.0}, 100.0);
  // Seed where plan a wins: make dim 1 cheap relative to dim 0? a uses lots
  // of r0; pick costs with tiny c0.
  const CostVector seed{0.02, 1.0, 1.0};
  ASSERT_EQ(oracle.Optimize(seed).plan_id, "a");

  const Result<ExtractedUsage> ex =
      ExtractUsageVector(oracle, "a", seed, box, rng, {});
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_NEAR(ex->usage[0], 100.0, 1e-3);
  EXPECT_NEAR(ex->usage[1], 3.0, 1e-3);
  EXPECT_NEAR(ex->usage[2], 0.0, 1e-3);
  // Paper: validation discrepancy below one percent.
  EXPECT_LT(ex->validation_error, 0.01);
  EXPECT_GE(ex->samples_used, 2 * 3u);
}

TEST(ExtractionTest, WrongSeedRejected) {
  Rng rng(47);
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 0.0}},
                                        {"b", UsageVector{0.0, 1.0}}};
  FakeOracle oracle(plans, false);
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 10.0);
  // Seed in b's region but asking for plan a.
  const Result<ExtractedUsage> ex = ExtractUsageVector(
      oracle, "a", CostVector{10.0, 0.1}, box, rng, {});
  EXPECT_EQ(ex.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DiscoveryTest, FindsAllPlansOfAFrontier) {
  // 2-D frontier where each plan has a fat region.
  const std::vector<PlanUsage> plans = {{"a", UsageVector{8.0, 1.0}},
                                        {"b", UsageVector{3.0, 3.0}},
                                        {"c", UsageVector{1.0, 8.0}}};
  FakeOracle oracle(plans, /*white_box=*/true);
  Rng rng(53);
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 100.0);
  const Result<DiscoveryResult> d =
      DiscoverCandidatePlans(oracle, box, rng, {});
  ASSERT_TRUE(d.ok());
  std::set<std::string> ids;
  for (const auto& dp : d->plans) ids.insert(dp.plan.plan_id);
  EXPECT_EQ(ids, (std::set<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(d->complete);
}

TEST(DiscoveryTest, NarrowOracleDiscoversAndExtracts) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{8.0, 1.0}},
                                        {"b", UsageVector{1.0, 8.0}}};
  FakeOracle oracle(plans, /*white_box=*/false);
  Rng rng(59);
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 50.0);
  const Result<DiscoveryResult> d =
      DiscoverCandidatePlans(oracle, box, rng, {});
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->plans.size(), 2u);
  for (const auto& dp : d->plans) {
    EXPECT_TRUE(dp.usage_from_least_squares);
    EXPECT_LT(dp.extraction_error, 0.01);
    const UsageVector& truth =
        dp.plan.plan_id == "a" ? plans[0].usage : plans[1].usage;
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_NEAR(dp.plan.usage[i], truth[i], 1e-3 * (1.0 + truth[i]));
    }
  }
}

TEST(DiscoveryTest, HiddenNicheFoundByCompletenessProbe) {
  // Plan "mid" only wins in a thin diagonal wedge that random probing at
  // low sample counts can miss; the completeness LP must locate it.
  const std::vector<PlanUsage> plans = {{"lo", UsageVector{10.0, 1.0}},
                                        {"mid", UsageVector{3.2, 3.2}},
                                        {"hi", UsageVector{1.0, 10.0}}};
  FakeOracle oracle(plans, true);
  Rng rng(61);
  DiscoveryOptions opts;
  opts.random_samples = 0;           // only center/axes/vertices
  opts.bisection_depth = 0;          // no segment refinement
  opts.full_vertex_sweep_max_dims = 0;
  opts.sampled_vertices = 0;
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 1.3);
  const Result<DiscoveryResult> d =
      DiscoverCandidatePlans(oracle, box, rng, opts);
  ASSERT_TRUE(d.ok());
  std::set<std::string> ids;
  for (const auto& dp : d->plans) ids.insert(dp.plan.plan_id);
  EXPECT_TRUE(ids.count("mid") == 1) << "completeness probe missed niche";
}

TEST(DiscoveryTest, FailedExtractionIsCountedAndClearsComplete) {
  // "tie" = (a + b) / 2 costs exactly min(a, b) only where a and b tie,
  // on the diagonal c1 == c2, and wins there because the oracle keeps the
  // first of equal costs. The box center and its diagonal vertices find
  // it, but its region of influence is that line: jittered samples off it
  // never return it, so least-squares extraction fails. The plan must not
  // vanish silently: it is counted, and the run is not complete although
  // the completeness round finds no new plan.
  const std::vector<PlanUsage> plans = {{"tie", UsageVector{2.5, 2.5}},
                                        {"a", UsageVector{4.0, 1.0}},
                                        {"b", UsageVector{1.0, 4.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 4.0);
  DiscoveryOptions opts;
  opts.extraction.max_oracle_calls = 200;

  FakeOracle narrow(plans, /*white_box=*/false);
  Rng rng(73);
  const Result<DiscoveryResult> d =
      DiscoverCandidatePlans(narrow, box, rng, opts);
  ASSERT_TRUE(d.ok());
  std::set<std::string> ids;
  for (const auto& dp : d->plans) ids.insert(dp.plan.plan_id);
  EXPECT_EQ(ids, (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(d->failed_extractions, 1u);
  EXPECT_EQ(d->failed_probes, 0u);
  EXPECT_FALSE(d->complete);

  // White-box, the same oracle reveals the tie plan's usage: nothing to
  // extract, nothing fails.
  FakeOracle white(plans, /*white_box=*/true);
  Rng white_rng(73);
  const Result<DiscoveryResult> w =
      DiscoverCandidatePlans(white, box, white_rng, opts);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->failed_extractions, 0u);
  EXPECT_TRUE(w->complete);
  EXPECT_EQ(w->plans.size(), 3u);
}

TEST(DiscoveryTest, DiscoveredSetSupportsExactWorstCase) {
  // End-to-end: discovery + LP worst case equals oracle vertex sweep.
  Rng rng(67);
  for (int t = 0; t < 10; ++t) {
    const size_t n = 2 + rng.Index(3);
    const auto plans = RandomFrontier(rng, n, 4 + rng.Index(4));
    FakeOracle oracle(plans, true);
    CostVector base(n);
    for (size_t i = 0; i < n; ++i) base[i] = rng.LogUniform(0.1, 10.0);
    const Box box = Box::MultiplicativeBand(base, 30.0);
    const size_t init = OptimalPlanIndex(plans, box.Center());

    const Result<DiscoveryResult> d =
        DiscoverCandidatePlans(oracle, box, rng, {});
    ASSERT_TRUE(d.ok());
    std::vector<PlanUsage> found;
    for (const auto& dp : d->plans) found.push_back(dp.plan);

    const Result<WorstCaseResult> via_discovery =
        WorstCaseOverPlansByLp(plans[init].usage, found, box);
    ASSERT_TRUE(via_discovery.ok());
    const Result<WorstCaseResult> via_sweep =
        WorstCaseByVertexSweep(oracle, plans[init].usage, box);
    ASSERT_TRUE(via_sweep.ok());
    EXPECT_NEAR(via_discovery->gtc, via_sweep->gtc, 1e-5 * via_sweep->gtc);
  }
}

TEST(DiscoveryTest, DimensionMismatchRejected) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 2.0}}};
  FakeOracle oracle(plans, true);
  Rng rng(71);
  const Box box = Box::MultiplicativeBand(CostVector{1.0}, 10.0);
  EXPECT_EQ(DiscoverCandidatePlans(oracle, box, rng, {}).status().code(),
            StatusCode::kInvalidArgument);
}


/// Decorates an oracle with cost quantization: the paper oversampled
/// (m >= 2n) specifically "to compensate for quantization error within the
/// query optimizer" — DB2 reports rounded costs.
class QuantizingOracle : public PlanOracle {
 public:
  QuantizingOracle(PlanOracle& inner, double significant_digits)
      : inner_(inner), digits_(significant_digits) {}

  OracleResult Optimize(const CostVector& c) override {
    OracleResult r = inner_.Optimize(c);
    const double mag = std::pow(10.0, std::floor(std::log10(r.total_cost)) -
                                          digits_ + 1.0);
    r.total_cost = std::round(r.total_cost / mag) * mag;
    r.usage.reset();  // quantized oracles are narrow by nature
    return r;
  }
  size_t dims() const override { return inner_.dims(); }

 private:
  PlanOracle& inner_;
  double digits_;
};

TEST(ExtractionTest, SurvivesCostQuantization) {
  // With the oracle rounding costs to 5 significant digits (a DB2-like
  // narrow interface), the m >= 2n oversampled least-squares fit still
  // recovers the usage vector to well under the paper's 1% bar.
  Rng rng(101);
  const std::vector<PlanUsage> plans = {
      {"a", UsageVector{1.7e6, 3.3e2, 0.0, 9.1e4}},
      {"b", UsageVector{2.0e2, 8.8e5, 4.0e3, 1.0e4}},
  };
  FakeOracle exact(plans, false);
  QuantizingOracle oracle(exact, 5.0);
  const Box box =
      Box::MultiplicativeBand(CostVector{1.0, 1.0, 1.0, 1.0}, 100.0);
  const CostVector seed{0.05, 1.0, 1.0, 1.0};  // plan a's region
  ASSERT_EQ(oracle.Optimize(seed).plan_id, "a");

  ExtractionOptions options;
  options.oversample_factor = 3;  // extra slack against the rounding
  const Result<ExtractedUsage> ex =
      ExtractUsageVector(oracle, "a", seed, box, rng, options);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_LT(ex->validation_error, 0.01);  // the paper's < 1% claim
  for (size_t i = 0; i < plans[0].usage.size(); ++i) {
    EXPECT_NEAR(ex->usage[i], plans[0].usage[i],
                0.01 * (plans[0].usage[i] + 1e4))
        << "dim " << i;
  }
}

}  // namespace
}  // namespace costsense::core
