// Tests for the reference vertex sweep: bit-exact agreement between both
// vertex-sweep forms and a naive per-vertex reference, first-index ties on
// the optimal plan, and the dominance filter's edge cases. Agreement is
// asserted with EXPECT_EQ on doubles on purpose: the sweep promises
// byte-identical results, not merely close ones.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/dominance.h"
#include "core/worst_case.h"
#include "tests/core/fake_oracle.h"

namespace costsense::core {
namespace {

std::vector<PlanUsage> RandomPlans(Rng& rng, size_t dims, size_t count) {
  std::vector<PlanUsage> plans;
  for (size_t p = 0; p < count; ++p) {
    UsageVector u(dims);
    for (size_t i = 0; i < dims; ++i) {
      u[i] = rng.Uniform() < 0.2 ? 0.0 : rng.LogUniform(1.0, 1e4);
    }
    if (u.Sum() == 0.0) u[0] = 1.0;
    plans.push_back({"p" + std::to_string(p), std::move(u)});
  }
  return plans;
}

Box RandomBox(Rng& rng, size_t dims) {
  CostVector base(dims);
  for (size_t i = 0; i < dims; ++i) base[i] = rng.LogUniform(0.01, 10.0);
  return Box::MultiplicativeBand(base, rng.LogUniform(1.5, 100.0));
}

/// Reference implementation: the serial sweep over a known plan set, in
/// ascending mask order with per-vertex dot products and fresh vertex
/// vectors, plus the degenerate-vertex counter. The library sweep must
/// reproduce this byte for byte.
WorstCaseResult NaivePlansSweep(const UsageVector& initial,
                                const std::vector<PlanUsage>& plans,
                                const Box& box) {
  WorstCaseResult out;
  out.worst_costs = box.Center();
  for (uint64_t mask = 0; mask < box.VertexCount(); ++mask) {
    const CostVector v = box.Vertex(mask);
    size_t ci = 0;
    double cheapest = TotalCost(plans[0].usage, v);
    for (size_t i = 1; i < plans.size(); ++i) {
      const double cost = TotalCost(plans[i].usage, v);
      if (cost < cheapest) {
        cheapest = cost;
        ci = i;
      }
    }
    if (cheapest <= 0.0) {
      ++out.degenerate_vertices;
      continue;
    }
    const double gtc = TotalCost(initial, v) / cheapest;
    if (gtc > out.gtc) {
      out.gtc = gtc;
      out.worst_costs = v;
      out.worst_rival = plans[ci].plan_id;
    }
  }
  return out;
}

/// Reference oracle sweep, same shape as above but asking the oracle.
WorstCaseResult NaiveOracleSweep(PlanOracle& oracle,
                                 const UsageVector& initial, const Box& box) {
  WorstCaseResult out;
  out.worst_costs = box.Center();
  for (uint64_t mask = 0; mask < box.VertexCount(); ++mask) {
    const CostVector v = box.Vertex(mask);
    const OracleResult r = oracle.Optimize(v);
    if (r.total_cost <= 0.0) {
      ++out.degenerate_vertices;
      continue;
    }
    const double gtc = TotalCost(initial, v) / r.total_cost;
    if (gtc > out.gtc) {
      out.gtc = gtc;
      out.worst_costs = v;
      out.worst_rival = r.plan_id;
    }
  }
  return out;
}

void ExpectSameResult(const WorstCaseResult& want, const WorstCaseResult& got) {
  EXPECT_EQ(want.gtc, got.gtc);
  EXPECT_EQ(want.worst_costs, got.worst_costs);
  EXPECT_EQ(want.worst_rival, got.worst_rival);
  EXPECT_EQ(want.degenerate_vertices, got.degenerate_vertices);
}

TEST(BoxTest, VertexIntoMatchesVertex) {
  Rng rng(7);
  const Box box = RandomBox(rng, 6);
  CostVector scratch(box.dims());
  for (uint64_t mask = 0; mask < box.VertexCount(); ++mask) {
    box.VertexInto(mask, scratch);
    EXPECT_EQ(scratch, box.Vertex(mask));
  }
}

TEST(VertexSweepTest, EmptyPlanSetKeepsDefaultResult) {
  Rng rng(3);
  const Box box = RandomBox(rng, 3);
  const WorstCaseResult r =
      WorstCaseOverPlansByVertices(UsageVector{1.0, 1.0, 1.0}, {}, box);
  EXPECT_EQ(r.gtc, 1.0);
  EXPECT_EQ(r.worst_costs, box.Center());
  EXPECT_EQ(r.degenerate_vertices, size_t{0});
}

TEST(VertexSweepTest, IdenticalRivalsReportTheFirst) {
  // "twin_a" and "twin_b" cost the same at every vertex; the first one in
  // the candidate set must be reported as the worst rival.
  const std::vector<PlanUsage> plans = {{"initial", UsageVector{1.0, 0.0}},
                                        {"twin_a", UsageVector{0.0, 1.0}},
                                        {"twin_b", UsageVector{0.0, 1.0}}};
  const Box box = Box::MultiplicativeBand(CostVector{1.0, 1.0}, 10.0);
  const WorstCaseResult r =
      WorstCaseOverPlansByVertices(plans[0].usage, plans, box);
  EXPECT_DOUBLE_EQ(r.gtc, 100.0);
  EXPECT_EQ(r.worst_rival, "twin_a");
  ExpectSameResult(NaivePlansSweep(plans[0].usage, plans, box), r);
}

TEST(VertexSweepTest, PlanSweepMatchesNaiveReference) {
  Rng rng(123);
  for (int t = 0; t < 40; ++t) {
    const size_t dims = 2 + rng.Index(9);  // up to 10 dims = 1024 vertices
    auto plans = RandomPlans(rng, dims, 1 + rng.Index(12));
    // Occasionally add an all-zero plan: its cost is exactly 0 at every
    // vertex, so the whole sweep is degenerate and must be counted as such.
    if (t % 7 == 0) {
      plans.push_back({"zero", UsageVector(dims)});
    }
    const Box box = RandomBox(rng, dims);
    const UsageVector& initial = plans[rng.Index(plans.size())].usage;

    const WorstCaseResult want = NaivePlansSweep(initial, plans, box);
    if (t % 7 == 0) {
      EXPECT_EQ(want.degenerate_vertices, box.VertexCount());
    }
    ExpectSameResult(want, WorstCaseOverPlansByVertices(initial, plans, box));
  }
}

TEST(VertexSweepTest, PlanSweepMatchesWithNegativeUsages) {
  // Negative usage entries make plan costs non-monotone in the cost
  // vector; the sweep makes no monotonicity assumption and must still
  // match the reference byte for byte.
  Rng rng(456);
  for (int t = 0; t < 10; ++t) {
    const size_t dims = 4 + rng.Index(6);
    auto plans = RandomPlans(rng, dims, 2 + rng.Index(10));
    for (auto& plan : plans) {
      if (rng.Uniform() < 0.5) {
        plan.usage[rng.Index(dims)] *= -1.0;
      }
    }
    const Box box = RandomBox(rng, dims);
    const UsageVector& initial = plans[0].usage;
    ExpectSameResult(NaivePlansSweep(initial, plans, box),
                     WorstCaseOverPlansByVertices(initial, plans, box));
  }
}

TEST(VertexSweepTest, OracleSweepMatchesNaiveReference) {
  Rng rng(321);
  for (int t = 0; t < 20; ++t) {
    const size_t dims = 2 + rng.Index(7);
    auto plans = RandomPlans(rng, dims, 2 + rng.Index(6));
    if (t % 5 == 0) {
      plans.push_back({"zero", UsageVector(dims)});
    }
    const Box box = RandomBox(rng, dims);
    const UsageVector& initial = plans[0].usage;

    FakeOracle ref_oracle(plans, /*white_box=*/false);
    const WorstCaseResult want = NaiveOracleSweep(ref_oracle, initial, box);
    FakeOracle oracle(plans, /*white_box=*/false);
    const Result<WorstCaseResult> got =
        WorstCaseByVertexSweep(oracle, initial, box);
    ASSERT_TRUE(got.ok());
    ExpectSameResult(want, *got);
    EXPECT_EQ(oracle.calls(), box.VertexCount());
  }
}

TEST(DominancePrescreenTest, EdgeCases) {
  EXPECT_TRUE(FilterDominated({}, 0.0).empty());
  const std::vector<PlanUsage> one = {{"solo", UsageVector{1.0, 2.0}}};
  const auto out = FilterDominated(one, 0.0);
  ASSERT_EQ(out.size(), size_t{1});
  EXPECT_EQ(out[0].plan_id, "solo");
}

}  // namespace
}  // namespace costsense::core
