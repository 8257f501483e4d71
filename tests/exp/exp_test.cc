// Integration tests of the experiment harness: these assert the *shape*
// results the paper reports, on a subset of queries at full SF-100 scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/worst_case.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "storage/layout.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::exp {
namespace {

const catalog::Catalog& Cat() {
  static const catalog::Catalog* cat =
      new catalog::Catalog(tpch::MakeTpchCatalog(100.0));
  return *cat;
}

FigureRunner::Options LightOptions() {
  FigureRunner::Options o;
  o.deltas = {2, 10, 100, 1000};
  o.discovery.random_samples = 16;
  o.discovery.sampled_vertices = 32;
  o.discovery.bisection_depth = 3;
  o.discovery.completeness_rounds = 1;
  return o;
}

const FigureRunner& Runner() {
  static const FigureRunner* runner = new FigureRunner(Cat(), LightOptions());
  return *runner;
}

/// One analysis per (query, layout), shared by every test in the suite:
/// the optimizer calls behind an analysis dominate the suite's run time,
/// so each pair is analyzed once however many tests read it.
const Result<QueryAnalysis>& CachedAnalysis(int query_number,
                                            storage::LayoutPolicy policy) {
  static auto* cache =
      new std::map<std::pair<int, storage::LayoutPolicy>,
                   Result<QueryAnalysis>>();
  const auto key = std::make_pair(query_number, policy);
  auto it = cache->find(key);
  if (it == cache->end()) {
    const query::Query q = tpch::MakeTpchQuery(Cat(), query_number);
    it = cache->emplace(key, Runner().Analyze(q, policy)).first;
  }
  return it->second;
}

/// Resource-space dimensionality of (query, layout), known from the
/// layout alone, without analyzing.
size_t ResourceDims(int query_number, storage::LayoutPolicy policy) {
  const query::Query q = tpch::MakeTpchQuery(Cat(), query_number);
  const storage::StorageLayout layout(policy, Cat(),
                                      query::ReferencedTables(q));
  return layout.BuildResourceSpace().dims();
}

TEST(FigureRunnerTest, SharedDeviceCurvesAreConstantBounded) {
  // Paper Figure 5 shape: on one device there are no complementary plans
  // and worst-case GTC approaches a constant (Theorem 2 regime).
  for (int qn : {1, 11, 19, 20}) {
    const auto& analysis =
        CachedAnalysis(qn, storage::LayoutPolicy::kSharedDevice);
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    const std::string& name = analysis->query_name;
    const auto series = Runner().GtcSeries(*analysis);
    ASSERT_TRUE(series.ok());
    EXPECT_FALSE(series->has_complementary_plans) << name;
    EXPECT_TRUE(std::isfinite(series->constant_bound)) << name;
    for (const GtcPoint& p : series->points) {
      EXPECT_LE(p.gtc, series->constant_bound * (1 + 1e-6))
          << name << " at delta " << p.delta;
      EXPECT_GE(p.gtc, 1.0 - 1e-9);
    }
  }
}

TEST(FigureRunnerTest, SeparateDevicesGoQuadratic) {
  // Paper Figure 6 shape: with tables and indexes on separate devices,
  // complementary plans appear and worst-case GTC grows ~delta^2 while
  // respecting the Theorem 1 bound.
  const auto& analysis =
      CachedAnalysis(19, storage::LayoutPolicy::kPerTableAndIndex);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const auto series = Runner().GtcSeries(*analysis);
  ASSERT_TRUE(series.ok());
  EXPECT_TRUE(series->has_complementary_plans);
  const auto& pts = series->points;
  // Quadratic regime between delta=10 and delta=1000: GTC scales by
  // ~(delta ratio)^2 once complementary rivals dominate.
  const double growth = pts[3].gtc / pts[1].gtc;  // delta 1000 vs 10
  EXPECT_GT(growth, 1e3);
  // Theorem 1: never exceeds delta^2 above the baseline GTC of 1.
  for (const GtcPoint& p : pts) {
    EXPECT_LE(p.gtc, p.delta * p.delta * (1 + 1e-6));
  }
}

TEST(FigureRunnerTest, MonotoneInDelta) {
  for (auto policy : {storage::LayoutPolicy::kSharedDevice,
                      storage::LayoutPolicy::kPerTableColocated}) {
    const auto& analysis = CachedAnalysis(8, policy);
    ASSERT_TRUE(analysis.ok());
    const auto series = Runner().GtcSeries(*analysis);
    ASSERT_TRUE(series.ok());
    double prev = 1.0;
    for (const GtcPoint& p : series->points) {
      EXPECT_GE(p.gtc, prev * (1 - 1e-9));  // wider box can't shrink GTC
      prev = p.gtc;
    }
  }
}

TEST(FigureRunnerTest, ComplementarityCensusMatchesPaperShape) {
  // Paper Section 8.2: separated layout shows access-path (not table)
  // complementarity; colocated layout eliminates the access-path kind.
  const auto& sep =
      CachedAnalysis(11, storage::LayoutPolicy::kPerTableAndIndex);
  ASSERT_TRUE(sep.ok());
  const core::ComplementarityReport sep_report =
      Runner().Complementarity(*sep);
  EXPECT_GT(sep_report.num_access_path, 0u);
  EXPECT_EQ(sep_report.num_table, 0u);

  const auto& colo =
      CachedAnalysis(11, storage::LayoutPolicy::kPerTableColocated);
  ASSERT_TRUE(colo.ok());
  const core::ComplementarityReport colo_report =
      Runner().Complementarity(*colo);
  EXPECT_EQ(colo_report.num_access_path, 0u);
  EXPECT_EQ(colo_report.num_table, 0u);
}

TEST(FigureRunnerTest, InitialPlanIsAmongCandidates) {
  const auto& analysis =
      CachedAnalysis(3, storage::LayoutPolicy::kSharedDevice);
  ASSERT_TRUE(analysis.ok());
  bool found = false;
  for (const core::PlanUsage& p : analysis->candidate_plans) {
    if (p.plan_id == analysis->initial_plan_id) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(analysis->dims, 3u);
  EXPECT_EQ(analysis->dim_info.size(), 3u);
}

TEST(FigureRunnerTest, FaultFreeProbeChainIsOneAttemptPerCall) {
  // Every analysis probes through the retry tier. With default options
  // (no faults) that tier adds nothing: one attempt per probe call, no
  // retries, failures or degraded points, and full coverage.
  const auto& analysis =
      CachedAnalysis(3, storage::LayoutPolicy::kSharedDevice);
  ASSERT_TRUE(analysis.ok());
  const runtime::resilience::ResilienceStats& r = analysis->probes.resilience;
  EXPECT_GT(r.calls, 0u);
  EXPECT_EQ(r.attempts, r.calls);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(analysis->probes.faults.faults, 0u);
  EXPECT_EQ(analysis->degraded_points, 0u);
  EXPECT_EQ(runtime::resilience::ProbeCoverage(r.calls, r.failures), 1.0);
}

TEST(FigureRunnerTest, LpMatchesVertexSweepOnQuickCandidateSets) {
  // Differential check of the figures' worst-case method: on every quick
  // query x layout whose resource space the 2^d vertex sweep can afford
  // (d <= 12), the LP's gtc over the discovered candidate set must match
  // the plain vertex sweep over the same set at every quick delta.
  constexpr size_t kMaxSweepDims = 12;
  std::vector<std::string> skipped;
  for (int qn : QuickQueryNumbers()) {
    for (storage::LayoutPolicy policy :
         {storage::LayoutPolicy::kSharedDevice,
          storage::LayoutPolicy::kPerTableAndIndex,
          storage::LayoutPolicy::kPerTableColocated}) {
      const std::string pair = "Q" + std::to_string(qn) + "/" +
                               storage::LayoutPolicyName(policy);
      if (ResourceDims(qn, policy) > kMaxSweepDims) {
        skipped.push_back(pair);
        continue;
      }
      const auto& analysis = CachedAnalysis(qn, policy);
      ASSERT_TRUE(analysis.ok()) << pair << ": "
                                 << analysis.status().ToString();
      for (double delta : Runner().options().deltas) {
        const core::Box box =
            core::Box::MultiplicativeBand(analysis->baseline, delta);
        const Result<core::WorstCaseResult> lp = core::WorstCaseOverPlansByLp(
            analysis->initial_usage, analysis->candidate_plans, box);
        ASSERT_TRUE(lp.ok()) << pair << ": " << lp.status().ToString();
        const core::WorstCaseResult sweep = core::WorstCaseOverPlansByVertices(
            analysis->initial_usage, analysis->candidate_plans, box);
        EXPECT_NEAR(lp->gtc, sweep.gtc, 1e-6 * sweep.gtc)
            << pair << " at delta " << delta;
      }
    }
  }
  // Only Q8 on separate table and index devices (16 resources) is past
  // the sweep's reach; a new entry here means a layout grew dimensions.
  EXPECT_EQ(skipped,
            (std::vector<std::string>{"Q8/per-table-and-index"}));
}

TEST(ReportTest, TablesRender) {
  FigureSeries s;
  s.query_name = "Q1";
  s.num_candidate_plans = 2;
  s.constant_bound = 3.5;
  s.points = {{2, 1.0, "x"}, {10, 2.5, "y"}};
  const std::string table = RenderFigureTable("title", {s});
  EXPECT_NE(table.find("title"), std::string::npos);
  EXPECT_NE(table.find("Q1"), std::string::npos);
  EXPECT_NE(table.find("2.5"), std::string::npos);
  const std::string csv = RenderFigureCsv({s});
  EXPECT_NE(csv.find("Q1,10,2.5,\"y\""), std::string::npos);
}

TEST(ReportTest, QuickQueryNumbersArePaperHighlights) {
  // Quick mode itself lives in engine::EngineConfig now; report only
  // exposes the highlighted query subset.
  EXPECT_EQ(QuickQueryNumbers(), (std::vector<int>{1, 8, 11, 16, 19, 20}));
}

}  // namespace
}  // namespace costsense::exp
