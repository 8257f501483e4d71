// The load-bearing determinism guarantee of the parallel runtime: a
// figure run on N threads produces byte-identical output to the serial
// run. Probe points are generated serially and only evaluated
// concurrently, reductions merge in ascending index order, and per-plan
// RNG streams are forked by plan id — so nothing observable depends on
// scheduling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/figure_runner.h"
#include "exp/report.h"
#include "runtime/thread_pool.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::runtime {
namespace {

const catalog::Catalog& Cat() {
  static const catalog::Catalog* cat =
      new catalog::Catalog(tpch::MakeTpchCatalog(100.0));
  return *cat;
}

struct FigureOutput {
  std::string table;
  std::string csv;
  std::vector<std::string> plan_ids;
};

FigureOutput RunFigure(ThreadPool* pool, storage::LayoutPolicy policy,
                       const std::vector<int>& query_numbers) {
  exp::FigureRunner::Options options;
  options.deltas = {2, 10, 100, 1000};
  options.discovery.random_samples = 12;
  options.discovery.sampled_vertices = 24;
  options.discovery.bisection_depth = 2;
  options.discovery.completeness_rounds = 1;
  options.pool = pool;
  const exp::FigureRunner runner(Cat(), options);

  std::vector<query::Query> queries;
  for (int qn : query_numbers) {
    queries.push_back(tpch::MakeTpchQuery(Cat(), qn));
  }
  const auto analyses = runner.AnalyzeMany(queries, policy);

  FigureOutput out;
  std::vector<exp::FigureSeries> all;
  for (const auto& analysis : analyses) {
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    if (!analysis.ok()) continue;
    for (const core::PlanUsage& p : analysis->candidate_plans) {
      out.plan_ids.push_back(p.plan_id);
    }
    const auto series = runner.GtcSeries(*analysis);
    EXPECT_TRUE(series.ok());
    if (series.ok()) all.push_back(*series);
  }
  out.table = exp::RenderFigureTable("equivalence", all);
  out.csv = exp::RenderFigureCsv(all);
  return out;
}

TEST(EquivalenceTest, SerialAndParallelFigureOutputsAreIdentical) {
  ThreadPool serial(1);
  ThreadPool parallel(4);
  // One constant-bounded layout and one complementary layout, covering
  // both GtcSeries regimes plus discovery, bisection and extraction.
  for (storage::LayoutPolicy policy :
       {storage::LayoutPolicy::kSharedDevice,
        storage::LayoutPolicy::kPerTableAndIndex}) {
    const std::vector<int> queries = {1, 19};
    const FigureOutput a = RunFigure(&serial, policy, queries);
    const FigureOutput b = RunFigure(&parallel, policy, queries);
    EXPECT_EQ(a.plan_ids, b.plan_ids);
    EXPECT_EQ(a.table, b.table);  // byte-identical, not just numerically close
    EXPECT_EQ(a.csv, b.csv);
  }
}

TEST(EquivalenceTest, RepeatedParallelRunsAreIdentical) {
  // Determinism also holds run-to-run on the same pool: scheduling noise
  // must not leak into results.
  ThreadPool pool(4);
  const std::vector<int> queries = {19};
  const FigureOutput a =
      RunFigure(&pool, storage::LayoutPolicy::kPerTableAndIndex, queries);
  const FigureOutput b =
      RunFigure(&pool, storage::LayoutPolicy::kPerTableAndIndex, queries);
  EXPECT_EQ(a.plan_ids, b.plan_ids);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.csv, b.csv);
}

}  // namespace
}  // namespace costsense::runtime
