#include "opt/optimizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>

#include "common/rng.h"
#include "core/feasible_region.h"
#include "opt/explain.h"
#include "query/builder.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::opt {
namespace {

using query::Query;
using query::QueryBuilder;
using storage::LayoutPolicy;
using storage::StorageLayout;

/// Star schema: a 10M-row fact with a selective filter column and two
/// dimensions, all indexed.
catalog::Catalog StarCatalog() {
  catalog::Catalog cat;
  const int fact = cat.AddTable(catalog::Table(
      "fact", 1e7, 4096,
      {catalog::MakeColumn("id", 1e7, 1, 1e7, 4),
       catalog::MakeColumn("d1_id", 1e4, 1, 1e4, 4),
       catalog::MakeColumn("d2_id", 1e3, 1, 1e3, 4),
       catalog::MakeColumn("filter_col", 1e5, 1, 1e5, 4),
       catalog::MakeColumn("payload", 1e7, 0, 0, 80)}));
  const int d1 = cat.AddTable(
      catalog::Table("d1", 1e4, 4096,
                     {catalog::MakeColumn("id", 1e4, 1, 1e4, 4),
                      catalog::MakeColumn("attr", 100, 0, 99, 4),
                      catalog::MakeColumn("pad", 1e4, 0, 0, 60)}));
  const int d2 = cat.AddTable(
      catalog::Table("d2", 1e3, 4096,
                     {catalog::MakeColumn("id", 1e3, 1, 1e3, 4),
                      catalog::MakeColumn("attr", 10, 0, 9, 4),
                      catalog::MakeColumn("pad", 1e3, 0, 0, 60)}));
  cat.AddIndex("fact_pk", fact, {0}, true, true);
  cat.AddIndex("fact_d1", fact, {1}, false, false);
  cat.AddIndex("fact_filter", fact, {3}, false, false);
  cat.AddIndex("d1_pk", d1, {0}, true, true);
  cat.AddIndex("d2_pk", d2, {0}, true, true);
  return cat;
}

struct Rig {
  catalog::Catalog cat;
  StorageLayout layout;
  storage::ResourceSpace space;
  Optimizer optimizer;

  Rig(catalog::Catalog c, const Query& q,
      LayoutPolicy policy = LayoutPolicy::kSharedDevice,
      OptimizerOptions options = {})
      : cat(std::move(c)),
        layout(policy, cat, query::ReferencedTables(q)),
        space(layout.BuildResourceSpace()),
        optimizer(cat, layout, space, options) {}
};

Query FilterQuery(const catalog::Catalog& cat, double sel) {
  return QueryBuilder(cat, "filter")
      .Table("fact", "f")
      .Restrict("f", "filter_col", sel)
      .Build();
}

TEST(OptimizerTest, SelectiveFilterUsesIndex) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 1e-6);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan->id.find("IXS"), std::string::npos) << r->plan->id;
}

TEST(OptimizerTest, WideFilterUsesScan) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 0.9);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->id, "SCAN(f)");
}

TEST(OptimizerTest, ExpensiveSeeksFlipIndexToScan) {
  // The classic access-path switchover the paper's Figure 5 discussion
  // hinges on: random I/O cost pushes the optimizer from an unclustered
  // index scan to a sequential scan.
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 2e-3);
  Rig rig(std::move(cat), q);
  core::CostVector costs = rig.space.BaselineCosts();

  costs[0] = 0.1;  // seeks nearly free
  const Result<Optimized> cheap_seek = rig.optimizer.Optimize(q, costs);
  ASSERT_TRUE(cheap_seek.ok());
  EXPECT_NE(cheap_seek->plan->id.find("IXS"), std::string::npos)
      << cheap_seek->plan->id;

  costs[0] = 1e5;  // seeks ruinous
  const Result<Optimized> dear_seek = rig.optimizer.Optimize(q, costs);
  ASSERT_TRUE(dear_seek.ok());
  EXPECT_EQ(dear_seek->plan->id, "SCAN(f)");
}

TEST(OptimizerTest, TotalCostIsDotProduct) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 0.01);
  Rig rig(std::move(cat), q);
  Rng rng(3);
  const core::Box box =
      core::Box::MultiplicativeBand(rig.space.BaselineCosts(), 100.0);
  for (int i = 0; i < 20; ++i) {
    const core::CostVector c = box.SampleLogUniform(rng);
    const Result<Optimized> r = rig.optimizer.Optimize(q, c);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r->total_cost, core::TotalCost(r->plan->usage, c),
                1e-9 * r->total_cost);
  }
}

Query JoinQuery(const catalog::Catalog& cat) {
  return QueryBuilder(cat, "join2")
      .Table("fact", "f")
      .Table("d1", "d")
      .Restrict("d", "attr", 0.01)
      .Join("f", "d1_id", "d", "id")
      .Build();
}

TEST(OptimizerTest, JoinPlanCoversBothTables) {
  catalog::Catalog cat = StarCatalog();
  const Query q = JoinQuery(cat);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->tables, 0b11u);
  EXPECT_GT(r->plan->output_rows, 0.0);
}

TEST(OptimizerTest, ChoicesAreOptimalAcrossCostVectors) {
  // Core optimality property: the plan chosen at cost vector v is never
  // beaten at v by a plan the optimizer chose at some other vector w.
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "join3")
                      .Table("fact", "f")
                      .Table("d1", "a")
                      .Table("d2", "b")
                      .Restrict("f", "filter_col", 1e-4)
                      .Restrict("a", "attr", 0.05)
                      .Join("f", "d1_id", "a", "id")
                      .Join("f", "d2_id", "b", "id")
                      .Build();
  Rig rig(std::move(cat), q);
  Rng rng(7);
  const core::Box box =
      core::Box::MultiplicativeBand(rig.space.BaselineCosts(), 1000.0);
  std::vector<core::UsageVector> usages;
  std::vector<core::CostVector> points;
  for (int i = 0; i < 25; ++i) {
    const core::CostVector c = box.SampleLogUniform(rng);
    const Result<Optimized> r = rig.optimizer.Optimize(q, c);
    ASSERT_TRUE(r.ok());
    usages.push_back(r->plan->usage);
    points.push_back(c);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const double chosen = core::TotalCost(usages[i], points[i]);
    for (size_t j = 0; j < usages.size(); ++j) {
      EXPECT_LE(chosen,
                core::TotalCost(usages[j], points[i]) * (1 + 1e-9))
          << "plan from point " << j << " beats choice at point " << i;
    }
  }
}

TEST(OptimizerTest, DeterministicAcrossRepeatedCalls) {
  catalog::Catalog cat = StarCatalog();
  const Query q = JoinQuery(cat);
  Rig rig(std::move(cat), q);
  const Result<Optimized> a = rig.optimizer.OptimizeAtBaseline(q);
  const Result<Optimized> b = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->plan->id, b->plan->id);
  EXPECT_DOUBLE_EQ(a->total_cost, b->total_cost);
}

TEST(OptimizerTest, SemiJoinKeepsAtMostOuterRows) {
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "semi")
                      .Table("d1", "d")
                      .Table("fact", "f")
                      .Join("d", "id", "f", "d1_id", query::JoinKind::kSemi)
                      .Build();
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->plan->output_rows, 1e4 * (1 + 1e-9));
}

TEST(OptimizerTest, AntiJoinKeepsFewerThanSemi) {
  catalog::Catalog cat = StarCatalog();
  auto build = [&cat](query::JoinKind kind) {
    return QueryBuilder(cat, "k")
        .Table("d1", "d")
        .Table("fact", "f")
        .LocalSelectivity("f", 1e-4)
        .Join("d", "id", "f", "d1_id", kind)
        .Build();
  };
  const Query semi = build(query::JoinKind::kSemi);
  const Query anti = build(query::JoinKind::kAnti);
  Rig rig_s(StarCatalog(), semi);
  Rig rig_a(StarCatalog(), anti);
  const double semi_rows =
      rig_s.optimizer.OptimizeAtBaseline(semi)->plan->output_rows;
  const double anti_rows =
      rig_a.optimizer.OptimizeAtBaseline(anti)->plan->output_rows;
  EXPECT_NEAR(semi_rows + anti_rows, 1e4, 1.0);
}

TEST(OptimizerTest, OrderByProducesSortedPlan) {
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "sorted")
                      .Table("d1", "d")
                      .OrderBy("d", "attr")
                      .Build();
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->plan->order.empty());
  EXPECT_EQ(r->plan->order[0].column, 1u);
}

TEST(OptimizerTest, InterestingOrderAvoidsRedundantSort) {
  // ORDER BY the primary key of the big table: the clustered index scan
  // already delivers the order, while sort-after-scan would pay a large
  // external sort; no SORT node should appear.
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "pkorder")
                      .Table("fact", "d")
                      .OrderBy("d", "id")
                      .Build();
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->id.find("SORT"), std::string::npos) << r->plan->id;
}

TEST(OptimizerTest, LeftDeepOnlyWhenBushyDisabled) {
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "j")
                      .Table("fact", "f")
                      .Table("d1", "a")
                      .Table("d2", "b")
                      .Join("f", "d1_id", "a", "id")
                      .Join("f", "d2_id", "b", "id")
                      .Build();
  OptimizerOptions opts;
  opts.bushy_joins = false;
  Rig rig(std::move(cat), q, LayoutPolicy::kSharedDevice, opts);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  // Verify every join's right child is a leaf (left-deep shape).
  std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
    if (n.left && n.right) {
      EXPECT_TRUE(n.right->left == nullptr ||
                  n.right->op == OpType::kIndexScan)
          << Explain(*r->plan, q);
    }
    if (n.left) check(*n.left);
    if (n.right) check(*n.right);
  };
  check(*r->plan);
}

TEST(OptimizerTest, DimensionMismatchRejected) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 0.5);
  Rig rig(std::move(cat), q);
  EXPECT_FALSE(rig.optimizer.Optimize(q, core::CostVector{1.0}).ok());
}

TEST(OptimizerTest, ExplainRendersTree) {
  catalog::Catalog cat = StarCatalog();
  const Query q = JoinQuery(cat);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  const std::string text = Explain(*r->plan, q);
  EXPECT_NE(text.find("rows="), std::string::npos);
  const std::string summary =
      ExplainSummary(*r->plan, rig.space, rig.space.BaselineCosts());
  EXPECT_NE(summary.find("total cost"), std::string::npos);
}

/// FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fnv1a(uint64_t h, double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (byte * 8)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// True if every node under `node` carries the id rendered from its
/// fields and its children's ids.
bool EveryNodeHasItsId(const PlanNode& node) {
  if (node.id.empty() || node.id != RenderPlanId(node)) return false;
  return (!node.left || EveryNodeHasItsId(*node.left)) &&
         (!node.right || EveryNodeHasItsId(*node.right));
}

TEST(OptimizerTest, TpchAnswersMatchPinnedDigest) {
  // Pins every answer the optimizer gives over TPC-H Q1-Q22 x the three
  // paper layouts x 20 cost vectors (the baseline, then 19 log-uniform
  // draws from the 100x band around it): the chosen plan's id and the
  // exact bits of its total cost and usage vector. Any change to the
  // plan space, the pruning, the tie-break or the id text moves it.
  const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
  uint64_t digest = 0xcbf29ce484222325ULL;
  size_t answers = 0;
  for (int qn = 1; qn <= 22; ++qn) {
    const Query q = tpch::MakeTpchQuery(cat, qn);
    for (const LayoutPolicy policy :
         {LayoutPolicy::kSharedDevice, LayoutPolicy::kPerTableAndIndex,
          LayoutPolicy::kPerTableColocated}) {
      const StorageLayout layout(policy, cat, query::ReferencedTables(q));
      const storage::ResourceSpace space = layout.BuildResourceSpace();
      const Optimizer optimizer(cat, layout, space);
      const core::Box box =
          core::Box::MultiplicativeBand(space.BaselineCosts(), 100.0);
      Rng rng(static_cast<uint64_t>(qn * 3 + static_cast<int>(policy)));
      for (int i = 0; i < 20; ++i) {
        const core::CostVector c =
            i == 0 ? space.BaselineCosts() : box.SampleLogUniform(rng);
        const Result<Optimized> r = optimizer.Optimize(q, c);
        ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
        EXPECT_TRUE(EveryNodeHasItsId(*r->plan)) << r->plan->id;
        digest = Fnv1a(digest, r->plan->id);
        digest = Fnv1a(digest, r->total_cost);
        for (const double u : r->plan->usage) digest = Fnv1a(digest, u);
        ++answers;
      }
    }
  }
  EXPECT_EQ(answers, 22u * 3u * 20u);
  EXPECT_EQ(digest, 0x9f3fa1a996b540f3ULL) << std::hex << "0x" << digest;
}

}  // namespace
}  // namespace costsense::opt
