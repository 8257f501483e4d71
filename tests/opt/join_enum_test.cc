// Tests of the dynamic-programming join enumerator: subset cardinality
// consistency (the property the additive framework depends on), semi/anti
// handling, cross products, and the feature toggles used by ablations.
#include "opt/join_enum.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feasible_region.h"
#include "opt/optimizer.h"
#include "query/builder.h"

namespace costsense::opt {
namespace {

using query::JoinKind;
using query::Query;
using query::QueryBuilder;
using storage::LayoutPolicy;
using storage::StorageLayout;

catalog::Catalog MakeCatalog() {
  catalog::Catalog cat;
  const int a = cat.AddTable(catalog::Table(
      "a", 1e6, 4096,
      {catalog::MakeColumn("id", 1e6, 1, 1e6, 4),
       catalog::MakeColumn("b_id", 1e4, 1, 1e4, 4)}));
  const int b = cat.AddTable(catalog::Table(
      "b", 1e4, 4096,
      {catalog::MakeColumn("id", 1e4, 1, 1e4, 4),
       catalog::MakeColumn("c_id", 100, 1, 100, 4)}));
  const int c = cat.AddTable(catalog::Table(
      "c", 100, 4096, {catalog::MakeColumn("id", 100, 1, 100, 4)}));
  cat.AddIndex("a_pk", a, {0}, true, true);
  cat.AddIndex("a_b", a, {1}, false, false);
  cat.AddIndex("b_pk", b, {0}, true, true);
  cat.AddIndex("c_pk", c, {0}, true, true);
  return cat;
}

struct Rig {
  catalog::Catalog cat;
  Query q;
  StorageLayout layout;
  storage::ResourceSpace space;
  CostModel model;
  OptimizerOptions options;

  Rig(catalog::Catalog c, Query query, OptimizerOptions opts = {})
      : cat(std::move(c)),
        q(std::move(query)),
        layout(LayoutPolicy::kSharedDevice, cat, query::ReferencedTables(q)),
        space(layout.BuildResourceSpace()),
        model(cat, layout, space, q),
        options(opts) {}
};

TEST(JoinEnumTest, SubsetCardinalityChain) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "chain")
                .Table("a", "a")
                .Table("b", "b")
                .Table("c", "c")
                .Join("a", "b_id", "b", "id")
                .Join("b", "c_id", "c", "id")
                .Build();
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);
  // Singletons: filtered base cardinalities.
  EXPECT_DOUBLE_EQ(e.SubsetRows(0b001), 1e6);
  EXPECT_DOUBLE_EQ(e.SubsetRows(0b010), 1e4);
  // a join b on b_id (ndv 1e4 each side: sel 1e-4): 1e6*1e4*1e-4 = 1e6.
  EXPECT_DOUBLE_EQ(e.SubsetRows(0b011), 1e6);
  // plus b join c (sel 1e-2): 1e6 * 100 * 1e-2 = 1e6.
  EXPECT_DOUBLE_EQ(e.SubsetRows(0b111), 1e6);
  // Disconnected pair {a, c}: cross product.
  EXPECT_DOUBLE_EQ(e.SubsetRows(0b101), 1e8);
}

TEST(JoinEnumTest, PlanRowsMatchSubsetRows) {
  // Every full plan must carry the enumerator's shared cardinality.
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "chain")
                .Table("a", "a")
                .Table("b", "b")
                .Table("c", "c")
                .Join("a", "b_id", "b", "id")
                .Join("b", "c_id", "c", "id")
                .Build();
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);
  const auto best = e.BestPlan(rig.space.BaselineCosts());
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ((*best)->output_rows, e.SubsetRows(0b111));
}

TEST(JoinEnumTest, SemiJoinCardinality) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "semi")
                .Table("b", "b")
                .Table("a", "a")
                .Join("b", "id", "a", "b_id", JoinKind::kSemi)
                .Build();
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);
  // P(match) = min(1, sel * |a|) = min(1, 1e-4 * 1e6) = 1: all b survive.
  EXPECT_DOUBLE_EQ(e.SubsetRows(0b11), 1e4);
}

TEST(JoinEnumTest, AntiJoinWithOverride) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "anti")
                .Table("b", "b")
                .Table("a", "a")
                .Join("b", "id", "a", "b_id", JoinKind::kAnti,
                      /*selectivity_override=*/0.5 / 1e6)
                .Build();
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);
  // P(match) = 0.5 -> half of b survives the anti join.
  EXPECT_NEAR(e.SubsetRows(0b11), 5e3, 1.0);
}

TEST(JoinEnumTest, DisconnectedGraphStillPlans) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "cross")
                .Table("b", "b")
                .Table("c", "c")
                .Build();  // no join edge
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);
  const auto best = e.BestPlan(rig.space.BaselineCosts());
  ASSERT_TRUE(best.ok());
  EXPECT_EQ((*best)->tables, 0b11u);
  EXPECT_DOUBLE_EQ((*best)->output_rows, 1e6);  // 1e4 x 100
}

TEST(JoinEnumTest, EmptyQueryRejected) {
  catalog::Catalog cat = MakeCatalog();
  Query q;
  q.name = "empty";
  // Bypass the rig (no refs to build a layout from).
  const StorageLayout layout(LayoutPolicy::kSharedDevice, cat, {0});
  const storage::ResourceSpace space = layout.BuildResourceSpace();
  const CostModel model(cat, layout, space, q);
  OptimizerOptions options;
  JoinEnumerator e(model, cat, options);
  EXPECT_EQ(e.BestPlan(space.BaselineCosts()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JoinEnumTest, RicherPlanSpaceNeverCostsMore) {
  // Enabling index-only access / bushy shapes can only improve (or tie)
  // the estimated optimum.
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "chain")
                .Table("a", "a")
                .Table("b", "b")
                .Table("c", "c")
                .Join("a", "b_id", "b", "id")
                .Join("b", "c_id", "c", "id")
                .Build();
  OptimizerOptions rich;
  OptimizerOptions poor;
  poor.bushy_joins = false;
  poor.enable_index_only = false;

  Rig rig_rich(MakeCatalog(), q, rich);
  Rig rig_poor(MakeCatalog(), q, poor);
  JoinEnumerator e_rich(rig_rich.model, rig_rich.cat, rig_rich.options);
  JoinEnumerator e_poor(rig_poor.model, rig_poor.cat, rig_poor.options);
  const auto c = rig_rich.space.BaselineCosts();
  const auto best_rich = e_rich.BestPlan(c);
  const auto best_poor = e_poor.BestPlan(c);
  ASSERT_TRUE(best_rich.ok() && best_poor.ok());
  EXPECT_LE(core::TotalCost((*best_rich)->usage, c),
            core::TotalCost((*best_poor)->usage, c) * (1 + 1e-12));
}

TEST(JoinEnumTest, SemiJoinRightSideStaysInner) {
  // The subquery side of a semi join must appear as the right input.
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "semi")
                .Table("b", "b")
                .Table("a", "a")
                .Join("b", "id", "a", "b_id", JoinKind::kSemi)
                .Build();
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);
  const auto best = e.BestPlan(rig.space.BaselineCosts());
  ASSERT_TRUE(best.ok());
  // Find the join node; its right subtree must be ref 1 ("a").
  const PlanNode* n = best->get();
  while (n && !(n->left && n->right)) n = n->left.get();
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->right->tables, 0b10u);
  EXPECT_EQ(n->join_kind, JoinKind::kSemi);
}


TEST(JoinEnumTest, NeverBeatenByHandEnumeratedMenu) {
  // Brute-force cross-check: for a 2-table query, hand-build every plan
  // from a fixed menu (access path x access path x join method, with the
  // sorts SMJ needs) and verify the DP never returns anything costlier
  // than the menu's best, across random cost vectors.
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "chain")
                .Table("a", "a")
                .Table("b", "b")
                .Join("a", "b_id", "b", "id")
                .Build();
  Rig rig(std::move(cat), std::move(q));
  JoinEnumerator e(rig.model, rig.cat, rig.options);

  const CostModel& m = rig.model;
  CostModel::JoinProps props;
  props.output_rows = e.SubsetRows(0b11);
  props.output_width_bytes = 60.0;
  props.edge = 0;

  std::vector<PlanNodePtr> menu;
  std::vector<PlanNodePtr> a_paths = {m.SeqScan(0)};
  const int a_ix = rig.cat.FindIndexByLeadingColumn(0, 1);
  if (a_ix >= 0) a_paths.push_back(m.IndexScan(0, a_ix, false));
  std::vector<PlanNodePtr> b_paths = {m.SeqScan(1)};
  const int b_ix = rig.cat.FindIndexByLeadingColumn(1, 0);
  if (b_ix >= 0) b_paths.push_back(m.IndexScan(1, b_ix, false));

  for (const PlanNodePtr& a : a_paths) {
    for (const PlanNodePtr& b : b_paths) {
      menu.push_back(m.HashJoin(a, b, props));
      menu.push_back(m.HashJoin(b, a, props));
      menu.push_back(m.BlockNLJoin(a, b, props));
      menu.push_back(m.SortMergeJoin(m.Sort(a, {{0, 1}}),
                                     m.Sort(b, {{1, 0}}), props));
    }
    if (b_ix >= 0) {
      menu.push_back(m.IndexNLJoin(a, 1, b_ix, false, props));
    }
  }

  Rng rng(91);
  const core::Box box =
      core::Box::MultiplicativeBand(rig.space.BaselineCosts(), 1000.0);
  for (int trial = 0; trial < 40; ++trial) {
    const core::CostVector c = box.SampleLogUniform(rng);
    const auto best = e.BestPlan(c);
    ASSERT_TRUE(best.ok());
    const double chosen = core::TotalCost((*best)->usage, c);
    for (const PlanNodePtr& candidate : menu) {
      EXPECT_LE(chosen, core::TotalCost(candidate->usage, c) * (1 + 1e-12))
          << "menu plan " << candidate->id << " beats the DP at trial "
          << trial;
    }
  }
}

}  // namespace
}  // namespace costsense::opt
