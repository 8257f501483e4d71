// The deterministic-count gate: quick Figures 5-7 at one thread, through
// FigureRunner, must spend exactly the pinned number of optimizer calls,
// find the pinned number of candidate plans and report the pinned
// completeness flag for every (figure, query). At one thread every probe
// runs in order, so these counts are exact; a discovery-budget or
// optimizer change that moves one fails here instead of passing silently
// behind a wall-time metric. The pinned file is tests/exp/quick_counts.txt.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "runtime/thread_pool.h"
#include "storage/layout.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::exp {
namespace {

struct Figure {
  const char* name;
  storage::LayoutPolicy policy;
};

std::string QuickCounts() {
  const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
  std::vector<query::Query> queries;
  for (int qn : QuickQueryNumbers()) {
    queries.push_back(tpch::MakeTpchQuery(cat, qn));
  }
  runtime::ThreadPool serial(1);
  FigureRunner::Options options;
  options.deltas = {2, 10, 100, 1000};
  options.discovery = QuickDiscovery();
  options.pool = &serial;
  const FigureRunner runner(cat, options);

  std::string out;
  for (const Figure& fig :
       {Figure{"fig5", storage::LayoutPolicy::kSharedDevice},
        Figure{"fig6", storage::LayoutPolicy::kPerTableAndIndex},
        Figure{"fig7", storage::LayoutPolicy::kPerTableColocated}}) {
    const std::vector<Result<QueryAnalysis>> analyses =
        runner.AnalyzeMany(queries, fig.policy);
    for (size_t i = 0; i < analyses.size(); ++i) {
      if (!analyses[i].ok()) {
        out += StrFormat("%s %s error=%s\n", fig.name, queries[i].name.c_str(),
                         analyses[i].status().ToString().c_str());
        continue;
      }
      const QueryAnalysis& a = *analyses[i];
      out += StrFormat("%s %s oracle_calls=%zu plans=%zu complete=%d\n",
                       fig.name, a.query_name.c_str(), a.oracle_calls,
                       a.candidate_plans.size(), a.discovery_complete ? 1 : 0);
    }
  }
  return out;
}

TEST(QuickCountGateTest, MatchesPinnedCounts) {
  std::ifstream in(COSTSENSE_QUICK_COUNTS_PATH);
  ASSERT_TRUE(in) << "cannot read " << COSTSENSE_QUICK_COUNTS_PATH;
  std::stringstream pinned;
  pinned << in.rdbuf();
  // On a deliberate change, the printed text replaces the pinned file.
  EXPECT_EQ(QuickCounts(), pinned.str());
}

}  // namespace
}  // namespace costsense::exp
