// Tests for relative total cost (paper Section 5.1-5.3) and the two
// severity bounds (Theorems 1 and 2, Sections 5.4-5.5).
#include "core/bounds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "core/feasible_region.h"
#include "core/relative_cost.h"

namespace costsense::core {
namespace {

TEST(RelativeCostTest, RatioOfDotProducts) {
  const UsageVector a{2.0, 0.0};
  const UsageVector b{1.0, 1.0};
  const CostVector c{3.0, 1.0};
  EXPECT_DOUBLE_EQ(RelativeTotalCost(a, b, c), 6.0 / 4.0);
}

TEST(RelativeCostTest, ScaleInvariance) {
  // Paper Observation 1: T_rel(a, b, kC) == T_rel(a, b, C).
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    const size_t n = 1 + rng.Index(6);
    UsageVector a(n), b(n);
    CostVector c(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.LogUniform(0.01, 1e5);
      b[i] = rng.LogUniform(0.01, 1e5);
      c[i] = rng.LogUniform(1e-6, 1e3);
    }
    const double k = rng.LogUniform(1e-9, 1e9);
    EXPECT_NEAR(RelativeTotalCost(a, b, c), RelativeTotalCost(a, b, c * k),
                1e-9 * RelativeTotalCost(a, b, c));
  }
}

TEST(RelativeCostTest, GlobalRelativeCostAtLeastOneForMembers) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{2.0, 1.0}},
                                        {"b", UsageVector{1.0, 2.0}}};
  const CostVector c{1.0, 3.0};
  EXPECT_DOUBLE_EQ(GlobalRelativeCost(plans[0].usage, plans, c), 1.0);
  EXPECT_DOUBLE_EQ(GlobalRelativeCost(plans[1].usage, plans, c), 7.0 / 5.0);
}

TEST(RelativeCostTest, OptimalPlanIndexPicksCheapest) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{2.0, 1.0}},
                                        {"b", UsageVector{1.0, 2.0}}};
  EXPECT_EQ(OptimalPlanIndex(plans, CostVector{1.0, 3.0}), 0u);
  EXPECT_EQ(OptimalPlanIndex(plans, CostVector{3.0, 1.0}), 1u);
  // A tie (both cost 3 at (1, 1)) goes to the first index, in either order.
  EXPECT_EQ(OptimalPlanIndex(plans, CostVector{1.0, 1.0}), 0u);
  const std::vector<PlanUsage> swapped = {plans[1], plans[0]};
  EXPECT_EQ(OptimalPlanIndex(swapped, CostVector{1.0, 1.0}), 0u);
}

TEST(Theorem1Test, UpperBoundFormula) {
  EXPECT_DOUBLE_EQ(Theorem1UpperBound(1.0, 10.0), 100.0);
  EXPECT_DOUBLE_EQ(Theorem1UpperBound(2.5, 3.0), 22.5);
}

TEST(Theorem1Test, ExampleOneShowsTightness) {
  // Paper Example 1: A=(1,0), B=(0,1). Under C1=(1,1) T_rel=1; under
  // C2=(d, 1/d) T_rel=d^2, meeting the bound exactly.
  const UsageVector a{1.0, 0.0};
  const UsageVector b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(RelativeTotalCost(a, b, CostVector{1.0, 1.0}), 1.0);
  const double d = 37.0;
  EXPECT_DOUBLE_EQ(RelativeTotalCost(a, b, CostVector{d, 1.0 / d}), d * d);
  EXPECT_DOUBLE_EQ(Theorem1UpperBound(1.0, d), d * d);
}

TEST(Theorem1Test, PropertyHoldsOnRandomPlans) {
  // For any two plans with T_rel = gamma at baseline C, T_rel at any
  // point of the delta-band is within [gamma/d^2, gamma*d^2].
  Rng rng(7);
  for (int t = 0; t < 200; ++t) {
    const size_t n = 1 + rng.Index(6);
    UsageVector a(n), b(n);
    CostVector c0(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform() < 0.3 ? 0.0 : rng.LogUniform(0.1, 1e4);
      b[i] = rng.Uniform() < 0.3 ? 0.0 : rng.LogUniform(0.1, 1e4);
      c0[i] = rng.LogUniform(1e-3, 1e2);
    }
    if (b.Sum() == 0.0) b[0] = 1.0;
    if (a.Sum() == 0.0) a[0] = 1.0;
    const double gamma = RelativeTotalCost(a, b, c0);
    const double delta = rng.LogUniform(1.0, 100.0);
    const Box box = Box::MultiplicativeBand(c0, delta);
    for (int k = 0; k < 20; ++k) {
      const CostVector c = box.SampleLogUniform(rng);
      const double rel = RelativeTotalCost(a, b, c);
      EXPECT_LE(rel, gamma * delta * delta * (1 + 1e-9));
      EXPECT_GE(rel, gamma / (delta * delta) * (1 - 1e-9));
    }
  }
}

TEST(Theorem2Test, DetectsComplementaryPair) {
  const RatioBound rb =
      ComputeRatioBound(UsageVector{1.0, 0.0}, UsageVector{1.0, 1.0});
  EXPECT_TRUE(rb.complementary);
}

TEST(Theorem2Test, RatiosForNonComplementaryPair) {
  const RatioBound rb =
      ComputeRatioBound(UsageVector{4.0, 1.0}, UsageVector{2.0, 2.0});
  EXPECT_FALSE(rb.complementary);
  EXPECT_DOUBLE_EQ(rb.r_min, 0.5);
  EXPECT_DOUBLE_EQ(rb.r_max, 2.0);
}

TEST(Theorem2Test, SharedZeroDimensionSkipped) {
  const RatioBound rb =
      ComputeRatioBound(UsageVector{4.0, 0.0}, UsageVector{2.0, 0.0});
  EXPECT_FALSE(rb.complementary);
  EXPECT_DOUBLE_EQ(rb.r_max, 2.0);
}

TEST(Theorem2Test, BothZeroVectorsNeutral) {
  const RatioBound rb =
      ComputeRatioBound(UsageVector{0.0, 0.0}, UsageVector{0.0, 0.0});
  EXPECT_FALSE(rb.complementary);
  EXPECT_DOUBLE_EQ(rb.r_min, 1.0);
  EXPECT_DOUBLE_EQ(rb.r_max, 1.0);
}

TEST(Theorem2Test, PropertyRelativeCostWithinRatioBounds) {
  // Theorem 2: for non-complementary pairs, T_rel under ANY positive cost
  // vector lies in [r_min, r_max].
  Rng rng(9);
  for (int t = 0; t < 200; ++t) {
    const size_t n = 1 + rng.Index(8);
    UsageVector a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.LogUniform(0.01, 1e6);
      b[i] = rng.LogUniform(0.01, 1e6);
    }
    const RatioBound rb = ComputeRatioBound(a, b);
    ASSERT_FALSE(rb.complementary);
    for (int k = 0; k < 20; ++k) {
      CostVector c(n);
      for (size_t i = 0; i < n; ++i) c[i] = rng.LogUniform(1e-9, 1e9);
      const double rel = RelativeTotalCost(a, b, c);
      EXPECT_LE(rel, rb.r_max * (1 + 1e-9));
      EXPECT_GE(rel, rb.r_min * (1 - 1e-9));
    }
  }
}

TEST(ConstantBoundTest, AllNonComplementaryGivesFiniteBound) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{4.0, 1.0}},
                                        {"b", UsageVector{2.0, 2.0}},
                                        {"c", UsageVector{1.0, 4.0}}};
  const double bound = WorstCaseConstantBound(plans);
  EXPECT_DOUBLE_EQ(bound, 4.0);  // a vs c: ratio 4 on dim 0
}

TEST(ConstantBoundTest, ComplementaryPairGivesInfinity) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 0.0}},
                                        {"b", UsageVector{0.0, 1.0}}};
  EXPECT_TRUE(std::isinf(WorstCaseConstantBound(plans)));
}

TEST(ConstantBoundTest, SinglePlanIsOne) {
  const std::vector<PlanUsage> plans = {{"a", UsageVector{1.0, 2.0}}};
  EXPECT_DOUBLE_EQ(WorstCaseConstantBound(plans), 1.0);
}

}  // namespace
}  // namespace costsense::core
