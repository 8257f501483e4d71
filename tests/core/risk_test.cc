#include "core/risk.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/worst_case.h"

namespace costsense::core {
namespace {

TEST(RiskTest, AlwaysOptimalPlanHasFlatProfile) {
  // A dominating plan is optimal everywhere: GTC identically 1.
  const std::vector<PlanUsage> plans = {{"good", UsageVector{1.0, 1.0}},
                                        {"bad", UsageVector{2.0, 2.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 100.0);
  Rng rng(1);
  const auto profile = ComputeRiskProfile(plans[0].usage, plans, box, rng);
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->mean_gtc, 1.0);
  EXPECT_DOUBLE_EQ(profile->max_seen, 1.0);
  EXPECT_DOUBLE_EQ(profile->prob_suboptimal, 0.0);
}

TEST(RiskTest, ComplementaryPairRisksGrowWithDelta) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 0.0}},
                                        {"b", UsageVector{0.0, 1.0}}};
  Rng rng(2);
  double prev_p90 = 0.0;
  for (double delta : {2.0, 10.0, 100.0}) {
    const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, delta);
    Rng local(42);
    const auto profile =
        ComputeRiskProfile(plans[0].usage, plans, box, local, 4000);
    ASSERT_TRUE(profile.ok());
    EXPECT_GT(profile->p90, prev_p90);
    prev_p90 = profile->p90;
    // Symmetric setup: plan a loses whenever c1 > c2, half the time.
    EXPECT_NEAR(profile->prob_suboptimal, 0.5, 0.05);
  }
}

TEST(RiskTest, QuantilesOrderedAndBoundedByWorstCase) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{5.0, 1.0, 0.0}},
                                        {"b", UsageVector{1.0, 5.0, 1.0}},
                                        {"c", UsageVector{2.0, 2.0, 2.0}}};
  const Box box =
      Box::MultiplicativeBand(CostVector{1.0, 2.0, 0.5}, 50.0);
  Rng rng(3);
  const auto profile =
      ComputeRiskProfile(plans[0].usage, plans, box, rng, 3000);
  ASSERT_TRUE(profile.ok());
  EXPECT_LE(profile->p50, profile->p90);
  EXPECT_LE(profile->p90, profile->p99);
  EXPECT_LE(profile->p99, profile->max_seen);
  EXPECT_GE(profile->mean_gtc, 1.0);
  // The exact worst case upper-bounds every sample.
  const auto wc = WorstCaseOverPlansByLp(plans[0].usage, plans, box);
  ASSERT_TRUE(wc.ok());
  EXPECT_LE(profile->max_seen, wc->gtc * (1 + 1e-9));
  // And Monte Carlo over a 3-dim box should get reasonably close to it.
  EXPECT_GT(profile->max_seen, 0.2 * wc->gtc);
}

TEST(RiskTest, InvalidInputsRejected) {
  const Box box = Box::MultiplicativeBand(CostVector{1.0}, 10.0);
  Rng rng(4);
  EXPECT_FALSE(ComputeRiskProfile(UsageVector{1.0}, {}, box, rng).ok());
  EXPECT_FALSE(ComputeRiskProfile(UsageVector{1.0, 2.0},
                                  {{"a", UsageVector{1.0}}}, box, rng)
                   .ok());
  EXPECT_FALSE(ComputeRiskProfile(UsageVector{1.0},
                                  {{"a", UsageVector{1.0}}}, box, rng, 0)
                   .ok());
}

/// A garbage usage vector (a faulty oracle reply, a fit gone non-finite)
/// must fail the profile with InvalidArgument naming the plan, not abort
/// the process.
void ExpectRejectsBadPlan(const UsageVector& bad_usage) {
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 10.0);
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 2.0}},
                                        {"bad", bad_usage}};
  Rng rng(5);
  const Result<RiskProfile> profile =
      ComputeRiskProfile(plans[0].usage, plans, box, rng, 10);
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(profile.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(profile.status().message().find("bad"), std::string::npos)
      << profile.status().ToString();
}

TEST(RiskTest, NanPlanIsInvalidArgument) {
  ExpectRejectsBadPlan(
      UsageVector{std::numeric_limits<double>::quiet_NaN(), 1.0});
}

TEST(RiskTest, InfPlanIsInvalidArgument) {
  ExpectRejectsBadPlan(
      UsageVector{1.0, std::numeric_limits<double>::infinity()});
}

TEST(RiskTest, PlanOneDimensionShortIsInvalidArgument) {
  ExpectRejectsBadPlan(UsageVector{1.0});
}

TEST(RiskTest, DeterministicGivenSeed) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{3.0, 1.0}},
                                        {"b", UsageVector{1.0, 3.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 20.0);
  Rng rng1(9), rng2(9);
  const auto p1 = ComputeRiskProfile(plans[0].usage, plans, box, rng1, 500);
  const auto p2 = ComputeRiskProfile(plans[0].usage, plans, box, rng2, 500);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_DOUBLE_EQ(p1->mean_gtc, p2->mean_gtc);
  EXPECT_DOUBLE_EQ(p1->p99, p2->p99);
}

}  // namespace
}  // namespace costsense::core
