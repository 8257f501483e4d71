// Tests for regions of influence and candidate-optimality (paper
// Sections 4.4-4.5) decided by linear programming.
#include "core/region_of_influence.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/relative_cost.h"

namespace costsense::core {
namespace {

std::vector<PlanUsage> ThreePlans() {
  // Pareto frontier in 2-D: each is optimal somewhere.
  return {{"a", UsageVector{4.0, 1.0}},
          {"b", UsageVector{2.0, 2.0}},
          {"c", UsageVector{1.0, 4.0}}};
}

TEST(RegionTest, EveryFrontierPlanIsCandidate) {
  const auto plans = ThreePlans();
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 10.0);
  for (size_t i = 0; i < plans.size(); ++i) {
    std::vector<PlanUsage> rivals;
    for (size_t j = 0; j < plans.size(); ++j) {
      if (j != i) rivals.push_back(plans[j]);
    }
    const Result<CandidacyResult> r =
        FindRegionWitness(plans[i].usage, rivals, box);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->candidate) << plans[i].plan_id;
    EXPECT_GT(r->margin, 0.0) << plans[i].plan_id;
    // The witness must actually make the plan optimal.
    EXPECT_LE(TotalCost(plans[i].usage, r->witness),
              TotalCost(rivals[0].usage, r->witness) + 1e-9);
    EXPECT_TRUE(box.Contains(r->witness, 1e-9));
  }
}

TEST(RegionTest, DominatedPlanIsNotCandidate) {
  const auto plans = ThreePlans();
  const UsageVector dominated{4.0, 4.0};  // dominated by b=(2,2)
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 1000.0);
  const Result<CandidacyResult> r = FindRegionWitness(dominated, plans, box);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->candidate);
}

TEST(RegionTest, NarrowBoxExcludesExtremePlan) {
  // Plan "a" = (4,1) only wins when c2/c1 is large; with a tight box around
  // equal costs, "b" = (2,2) wins everywhere.
  const auto plans = ThreePlans();
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 1.05);
  std::vector<PlanUsage> rivals = {plans[1], plans[2]};
  const Result<CandidacyResult> r =
      FindRegionWitness(plans[0].usage, rivals, box);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->candidate);
}

TEST(RegionTest, TieOnlyPlanHasZeroMargin) {
  // Identical usage vectors: candidate via ties, but margin 0... identical
  // vectors are skipped, so candidacy holds trivially with margin free to
  // reach the cap. Use a plan that ties only on the box boundary instead.
  const std::vector<PlanUsage> rivals = {{"b", UsageVector{2.0, 2.0}}};
  // a = (4, 1): a.C <= b.C  iff  4c1 + c2 <= 2c1 + 2c2  iff  2c1 <= c2.
  // Box [1,2]^2: only point c=(1,2) satisfies it, with equality.
  const Box box(CostVector{1.0, 1.0}, CostVector{2.0, 2.0});
  const Result<CandidacyResult> r =
      FindRegionWitness(UsageVector{4.0, 1.0}, rivals, box);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->candidate);
  EXPECT_NEAR(r->margin, 0.0, 1e-9);
}

// The by-reference form (rival usage pointers, reused scratch buffers) is
// the same LP as the by-value one: candidacy, margin and witness agree
// bit for bit, for every plan of a random 4-D set, whatever the scratch
// held from the previous call (including a larger problem).
TEST(RegionTest, ByReferenceRivalsMatchByValueRivals) {
  Rng rng(17);
  std::vector<PlanUsage> plans;
  for (int k = 0; k < 7; ++k) {
    UsageVector u(4);
    for (size_t i = 0; i < 4; ++i) u[i] = rng.LogUniform(0.1, 100.0);
    plans.push_back({"p" + std::to_string(k), u});
  }
  plans.push_back(plans[2]);  // identical usage: skipped as a tie
  plans.back().plan_id = "dup";
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 2.0, 3.0, 4.0}, 30.0);
  RegionWitnessScratch scratch;
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < plans.size(); ++i) {
      std::vector<PlanUsage> by_value;
      std::vector<const UsageVector*> by_reference;
      for (size_t j = 0; j < plans.size(); ++j) {
        if (j == i) continue;
        by_value.push_back(plans[j]);
        by_reference.push_back(&plans[j].usage);
      }
      // The second pass shrinks the rival list, so the scratch carries a
      // larger problem's buffers into a smaller one.
      if (pass == 1) {
        by_value.resize(by_value.size() / 2);
        by_reference.resize(by_reference.size() / 2);
      }
      const Result<CandidacyResult> expected =
          FindRegionWitness(plans[i].usage, by_value, box);
      const Result<CandidacyResult> got = FindRegionWitness(
          plans[i].usage, by_reference, box, &scratch);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->candidate, expected->candidate) << plans[i].plan_id;
      EXPECT_EQ(std::bit_cast<uint64_t>(got->margin),
                std::bit_cast<uint64_t>(expected->margin))
          << plans[i].plan_id;
      EXPECT_EQ(got->witness, expected->witness) << plans[i].plan_id;
    }
  }
  const UsageVector short_usage{1.0};
  const std::vector<const UsageVector*> wrong_dims = {&short_usage};
  EXPECT_FALSE(
      FindRegionWitness(plans[0].usage, wrong_dims, box, &scratch).ok());
}

TEST(RegionTest, InRegionOfInfluenceMatchesOptimality) {
  const auto plans = ThreePlans();
  Rng rng(3);
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 100.0);
  for (int t = 0; t < 200; ++t) {
    const CostVector c = box.SampleLogUniform(rng);
    const size_t best = OptimalPlanIndex(plans, c);
    EXPECT_TRUE(InRegionOfInfluence(plans, best, c));
    for (size_t j = 0; j < plans.size(); ++j) {
      if (InRegionOfInfluence(plans, j, c)) {
        // Any member claims only if it matches the best cost.
        EXPECT_NEAR(TotalCost(plans[j].usage, c),
                    TotalCost(plans[best].usage, c),
                    1e-9 * TotalCost(plans[best].usage, c));
      }
    }
  }
}

TEST(RegionTest, RegionsAreConvex) {
  // Paper Observation 3: if a plan is optimal at C1 and C2, it is optimal
  // at every convex combination.
  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    const size_t n = 2 + rng.Index(4);
    std::vector<PlanUsage> plans;
    for (int p = 0; p < 6; ++p) {
      UsageVector u(n);
      for (size_t i = 0; i < n; ++i) u[i] = rng.LogUniform(0.1, 100.0);
      plans.push_back({"p" + std::to_string(p), std::move(u)});
    }
    CostVector base(n);
    for (size_t i = 0; i < n; ++i) base[i] = rng.LogUniform(0.01, 10.0);
    const Box box = Box::MultiplicativeBand(base, 50.0);
    const CostVector c1 = box.SampleLogUniform(rng);
    const CostVector c2 = box.SampleLogUniform(rng);
    const size_t b1 = OptimalPlanIndex(plans, c1);
    if (b1 != OptimalPlanIndex(plans, c2)) continue;
    for (double beta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const CostVector mid = c1 * beta + c2 * (1.0 - beta);
      EXPECT_TRUE(InRegionOfInfluence(plans, b1, mid, 1e-9));
    }
  }
}

TEST(RegionTest, DimensionMismatchRejected) {
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 10.0);
  EXPECT_FALSE(FindRegionWitness(UsageVector{1.0}, {}, box).ok());
}

}  // namespace
}  // namespace costsense::core
