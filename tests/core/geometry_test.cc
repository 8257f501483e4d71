// Tests for the geometric constructs of the framework: equicost lines,
// switchover planes, half-spaces (paper Section 4.1-4.3), dominance
// (Section 4.4) and the feasible cost region (Section 3.3).
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "core/dominance.h"
#include "core/feasible_region.h"
#include "core/switchover.h"

namespace costsense::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(SwitchoverTest, NormalIsDifferenceOfUsageVectors) {
  const SwitchoverPlane plane(UsageVector{3.0, 1.0}, UsageVector{1.0, 2.0});
  EXPECT_EQ(plane.normal(), (linalg::Vector{2.0, -1.0}));
  EXPECT_FALSE(plane.degenerate());
}

TEST(SwitchoverTest, EqualCostVectorOnPlane) {
  // A=(2,1), B=(1,2): costs tie whenever c1 == c2.
  const SwitchoverPlane plane(UsageVector{2.0, 1.0}, UsageVector{1.0, 2.0});
  EXPECT_EQ(plane.Classify(CostVector{5.0, 5.0}), Side::kOnPlane);
  EXPECT_EQ(plane.Classify(CostVector{6.0, 1.0}), Side::kADominated);
  EXPECT_EQ(plane.Classify(CostVector{1.0, 6.0}), Side::kBDominated);
}

TEST(SwitchoverTest, DegenerateForIdenticalPlans) {
  const UsageVector u{1.0, 2.0};
  const SwitchoverPlane plane(u, u);
  EXPECT_TRUE(plane.degenerate());
  EXPECT_EQ(plane.Classify(CostVector{3.0, 4.0}), Side::kOnPlane);
}

TEST(SwitchoverTest, ClassificationScaleInvariant) {
  // Observation 1: scaling C cannot move it across the plane.
  Rng rng(17);
  for (int t = 0; t < 50; ++t) {
    UsageVector a(3), b(3);
    CostVector c(3);
    for (int i = 0; i < 3; ++i) {
      a[i] = rng.LogUniform(0.1, 1e4);
      b[i] = rng.LogUniform(0.1, 1e4);
      c[i] = rng.LogUniform(1e-3, 1e3);
    }
    const SwitchoverPlane plane(a, b);
    const Side s1 = plane.Classify(c);
    const Side s2 = plane.Classify(c * 1e6);
    const Side s3 = plane.Classify(c * 1e-6);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s3);
  }
}

TEST(EquicostTest, DetectsEqualCosts) {
  const CostVector c{1.0, 1.0};
  EXPECT_TRUE(
      OnSameEquicostLine(UsageVector{2.0, 1.0}, UsageVector{1.0, 2.0}, c));
  EXPECT_FALSE(
      OnSameEquicostLine(UsageVector{2.0, 2.0}, UsageVector{1.0, 2.0}, c));
}

TEST(DominanceTest, ComponentwiseSmallerDominates) {
  EXPECT_TRUE(Dominates(UsageVector{1.0, 1.0}, UsageVector{2.0, 1.0}));
  EXPECT_TRUE(Dominates(UsageVector{1.0, 1.0}, UsageVector{2.0, 3.0}));
  EXPECT_FALSE(Dominates(UsageVector{2.0, 1.0}, UsageVector{1.0, 2.0}));
  EXPECT_FALSE(Dominates(UsageVector{1.0, 1.0}, UsageVector{1.0, 1.0}));
}

TEST(DominanceTest, FilterRemovesDominatedAndDuplicates) {
  // Mirrors paper Figure 3: A1 and A5 are dominated.
  std::vector<PlanUsage> plans = {
      {"a1", UsageVector{5.0, 5.0}},  // dominated by a3
      {"a2", UsageVector{1.0, 6.0}},
      {"a3", UsageVector{3.0, 3.0}},
      {"a4", UsageVector{6.0, 1.0}},
      {"a5", UsageVector{7.0, 2.0}},  // dominated by a4
      {"a2dup", UsageVector{1.0, 6.0}},
  };
  const std::vector<PlanUsage> kept = FilterDominated(std::move(plans));
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].plan_id, "a2");
  EXPECT_EQ(kept[1].plan_id, "a3");
  EXPECT_EQ(kept[2].plan_id, "a4");
}

TEST(DominanceTest, DominatedPlanNeverOptimal) {
  // Property: if a dominates b, then under every positive cost vector the
  // cost of a is <= the cost of b.
  Rng rng(23);
  for (int t = 0; t < 100; ++t) {
    const size_t n = 1 + rng.Index(5);
    UsageVector a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.LogUniform(0.1, 100.0);
      b[i] = a[i] + rng.Uniform(0.0, 10.0);
    }
    if (!Dominates(a, b)) continue;
    for (int k = 0; k < 10; ++k) {
      CostVector c(n);
      for (size_t i = 0; i < n; ++i) c[i] = rng.LogUniform(1e-3, 1e3);
      EXPECT_LE(TotalCost(a, c), TotalCost(b, c) + 1e-9);
    }
  }
}

TEST(BoxTest, MultiplicativeBandBounds) {
  const Box box = Box::MultiplicativeBand(CostVector{24.1, 9.0, 1e-6}, 10.0);
  EXPECT_NEAR(box.lower()[0], 2.41, 1e-12);
  EXPECT_NEAR(box.upper()[0], 241.0, 1e-12);
  EXPECT_NEAR(box.lower()[2], 1e-7, 1e-18);
  EXPECT_NEAR(box.upper()[2], 1e-5, 1e-16);
}

TEST(BoxTest, CenterOfBandIsBaseline) {
  const CostVector baseline{24.1, 9.0, 1e-6};
  const Box box = Box::MultiplicativeBand(baseline, 100.0);
  const CostVector center = box.Center();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(center[i], baseline[i], 1e-9 * baseline[i]);
  }
}

TEST(BoxTest, VertexEnumeration) {
  const Box box(CostVector{1.0, 2.0}, CostVector{3.0, 4.0});
  EXPECT_EQ(box.VertexCount(), 4u);
  EXPECT_EQ(box.Vertex(0b00), (CostVector{1.0, 2.0}));
  EXPECT_EQ(box.Vertex(0b01), (CostVector{3.0, 2.0}));
  EXPECT_EQ(box.Vertex(0b10), (CostVector{1.0, 4.0}));
  EXPECT_EQ(box.Vertex(0b11), (CostVector{3.0, 4.0}));
}

TEST(BoxTest, ContainsItsVerticesAndCenter) {
  const Box box = Box::MultiplicativeBand(CostVector{2.0, 5.0}, 7.0);
  for (uint64_t m = 0; m < box.VertexCount(); ++m) {
    EXPECT_TRUE(box.Contains(box.Vertex(m)));
  }
  EXPECT_TRUE(box.Contains(box.Center()));
  EXPECT_FALSE(box.Contains(CostVector{100.0, 5.0}));
}

TEST(BoxTest, SamplesStayInside) {
  Rng rng(31);
  const Box box = Box::MultiplicativeBand(CostVector{24.1, 9.0, 1e-6}, 1000.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(box.Contains(box.SampleLogUniform(rng)));
  }
}

TEST(BoxTest, DeltaOneIsAPoint) {
  const Box box = Box::MultiplicativeBand(CostVector{3.0}, 1.0);
  EXPECT_EQ(box.lower()[0], box.upper()[0]);
  Rng rng(1);
  EXPECT_EQ(box.SampleLogUniform(rng)[0], 3.0);
}

TEST(BoxDeathTest, RejectsNonPositiveLower) {
  EXPECT_DEATH(Box(CostVector{0.0}, CostVector{1.0}), "positive");
}

TEST(BoxDeathTest, RejectsDeltaBelowOne) {
  EXPECT_DEATH(Box::MultiplicativeBand(CostVector{1.0}, 0.5), "delta");
}

TEST(BoxDeathTest, RejectsNonFiniteBounds) {
  EXPECT_DEATH(Box(CostVector{1.0}, CostVector{kInf}), "finite");
  EXPECT_DEATH(Box(CostVector{kNan}, CostVector{1.0}), "finite");
}

TEST(BoxDeathTest, RejectsLowerAboveUpper) {
  EXPECT_DEATH(Box(CostVector{2.0}, CostVector{1.0}), "lower bound above");
}

TEST(BoxValidatedTest, AcceptsGoodBoundsAndMatchesConstructor) {
  const Result<Box> box = Box::Validated(CostVector{1.0, 2.0},
                                         CostVector{3.0, 4.0});
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->lower(), (CostVector{1.0, 2.0}));
  EXPECT_EQ(box->upper(), (CostVector{3.0, 4.0}));
}

TEST(BoxValidatedTest, RejectsBadBoundsWithTypedStatus) {
  // Each violation is a typed InvalidArgument, not a process abort: these
  // bounds may arrive from requests or config rather than local math.
  EXPECT_EQ(Box::Validated(CostVector{2.0}, CostVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::Validated(CostVector{0.0}, CostVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::Validated(CostVector{1.0}, CostVector{kInf}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::Validated(CostVector{kNan}, CostVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      Box::Validated(CostVector{1.0}, CostVector{1.0, 2.0}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(BoxValidatedTest, MultiplicativeBandValidatesDeltaAndBaseline) {
  ASSERT_TRUE(Box::ValidatedMultiplicativeBand(CostVector{1.0, 2.0}, 10.0)
                  .ok());
  EXPECT_EQ(Box::ValidatedMultiplicativeBand(CostVector{1.0}, 0.5)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::ValidatedMultiplicativeBand(CostVector{1.0}, kNan)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::ValidatedMultiplicativeBand(CostVector{kNan}, 10.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace costsense::core
