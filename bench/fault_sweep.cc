// Fault-sweep acceptance harness for the resilience tier: runs the
// worst-case figure pipeline (queries 1 and 19, per-table-and-index
// layout) at injected transient-fault rates {0%, 5%, 20%} with a retry
// budget that absorbs every burst, and asserts the figure output (table,
// CSV, discovered plan ids) is byte-identical to a fault-free run at
// thread counts 1 and 3. A final run at 20% faults with a zero retry
// budget must still complete, with the driver-side degraded counts
// reconciling exactly against the injector's own fault log. One JSON perf
// line per configuration lands on stderr / COSTSENSE_BENCH_JSON.
//
// Exit status 0 means every assertion held.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "runtime/metrics.h"
#include "runtime/resilience/clock.h"
#include "runtime/resilience/resilient_oracle.h"
#include "runtime/thread_pool.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::bench {
namespace {

struct RunOutput {
  std::string table;
  std::string csv;
  std::vector<std::string> plan_ids;
  runtime::RuntimeMetrics metrics;
  bool all_ok = true;
  // Per-analysis counters, for the per-query accounting identity.
  std::vector<exp::QueryAnalysis> analyses;
};

/// One figure run on a fresh pool of `threads`, so the pool counters in
/// the run's metrics belong to this run alone.
RunOutput RunFigure(const catalog::Catalog& catalog, size_t threads,
                    double fault_rate, size_t max_retries,
                    runtime::resilience::Clock* clock) {
  runtime::ThreadPool pool(threads);
  exp::FigureRunner::Options options;
  options.deltas = {2, 10, 100, 1000};
  options.discovery.random_samples = 12;
  options.discovery.sampled_vertices = 24;
  options.discovery.bisection_depth = 2;
  options.discovery.completeness_rounds = 1;
  options.pool = &pool;
  options.probes.faults.fault_rate = fault_rate;
  options.probes.retry.max_retries = max_retries;
  options.probes.clock = clock;
  const exp::FigureRunner runner(catalog, options);

  std::vector<query::Query> queries;
  for (int qn : {1, 19}) queries.push_back(tpch::MakeTpchQuery(catalog, qn));
  RunOutput out;
  out.metrics.threads = pool.num_threads();
  runtime::WallTimer timer;
  const std::vector<Result<exp::QueryAnalysis>> analyses =
      runner.AnalyzeMany(queries, storage::LayoutPolicy::kPerTableAndIndex);
  out.metrics.phase_wall_ms.emplace_back("analyze", timer.ElapsedMs());

  timer.Restart();
  std::vector<exp::FigureSeries> all;
  for (const Result<exp::QueryAnalysis>& analysis : analyses) {
    if (!analysis.ok()) {
      std::fprintf(stderr, "analysis failed: %s\n",
                   analysis.status().ToString().c_str());
      out.all_ok = false;
      continue;
    }
    for (const core::PlanUsage& p : analysis->candidate_plans) {
      out.plan_ids.push_back(p.plan_id);
    }
    const Result<exp::FigureSeries> series = runner.GtcSeries(*analysis);
    if (!series.ok()) {
      std::fprintf(stderr, "series failed: %s\n",
                   series.status().ToString().c_str());
      out.all_ok = false;
      continue;
    }
    all.push_back(*series);
    AddAnalysis(*analysis, out.metrics);
    out.analyses.push_back(*analysis);
  }
  out.metrics.phase_wall_ms.emplace_back("series", timer.ElapsedMs());
  const runtime::PoolStats pool_stats = pool.stats();
  out.metrics.tasks_run = pool_stats.tasks_run;
  out.metrics.queue_high_water = pool_stats.queue_high_water;
  out.table = exp::RenderFigureTable("fault-sweep", all);
  out.csv = exp::RenderFigureCsv(all);
  return out;
}

int Run(engine::Engine& eng) {
  const catalog::Catalog catalog = tpch::MakeTpchCatalog(100.0);
  runtime::resilience::ManualClock clock;

  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++failures;
    }
  };

  // Absorbed-fault equivalence: at every thread count, every fault rate
  // the retry budget can absorb must leave the figure output untouched.
  const double kRates[] = {0.0, 0.05, 0.20};
  std::string reference_table;  // the threads=1 fault-free output
  for (size_t threads : {size_t{1}, size_t{3}}) {
    // The default chain: no injector, real clock, default retry budget.
    const RunOutput baseline =
        RunFigure(catalog, threads, /*fault_rate=*/0.0,
                  runtime::resilience::ResilientOracleOptions{}.max_retries,
                  nullptr);
    check(baseline.all_ok, "baseline run completed");
    check(baseline.metrics.oracle_attempts == baseline.metrics.probe_calls,
          "baseline: one attempt per probe call");
    if (reference_table.empty()) {
      reference_table = baseline.table;
    } else {
      // The pre-existing guarantee the resilience tier must not erode:
      // serial and parallel figure output is byte-identical.
      check(baseline.table == reference_table,
            "baseline output identical across thread counts");
    }

    for (double rate : kRates) {
      const RunOutput run =
          RunFigure(catalog, threads, rate, /*max_retries=*/5, &clock);
      const std::string tag =
          "threads=" + std::to_string(threads) +
          " rate=" + std::to_string(rate);
      check(run.all_ok, tag + ": run completed");
      check(run.table == baseline.table, tag + ": table byte-identical");
      check(run.csv == baseline.csv, tag + ": csv byte-identical");
      check(run.plan_ids == baseline.plan_ids,
            tag + ": plan ids byte-identical");
      check(run.metrics.oracle_failures == 0, tag + ": no surfaced failures");
      check(run.metrics.degraded_points == 0, tag + ": no degraded points");
      check(run.metrics.Coverage() == 1.0, tag + ": full coverage");
      if (rate > 0.0) {
        check(run.metrics.faults_injected > 0,
              tag + ": faults were actually injected");
        check(run.metrics.oracle_retries >= run.metrics.faults_injected,
              tag + ": every fault was absorbed by a retry");
      }
      EmitBenchJson(
          eng.config(), "fault_sweep_t" + std::to_string(threads), run.metrics,
          {{"fault_rate", rate},
           {"retry_budget", 5.0},
           {"probe_calls", static_cast<double>(run.metrics.probe_calls)}});
    }
  }

  // Budget exhaustion: with no retries at a 20% fault rate the sweep must
  // still complete, and the degraded accounting must reconcile exactly —
  // per analysis, each injected fault is one surfaced oracle failure is
  // one driver-side degraded point.
  {
    const RunOutput degraded =
        RunFigure(catalog, /*threads=*/3, /*fault_rate=*/0.20,
                  /*max_retries=*/0, &clock);
    check(degraded.all_ok, "degraded run completed with exit-0 analyses");
    check(degraded.metrics.faults_injected > 0,
          "degraded run injected faults");
    check(degraded.metrics.Coverage() < 1.0,
          "degraded run reports partial coverage");
    for (const exp::QueryAnalysis& a : degraded.analyses) {
      const runtime::resilience::ResilienceStats& r = a.probes.resilience;
      check(a.degraded_points == r.failures,
            a.query_name + ": degraded points == oracle failures");
      check(r.failures == a.probes.faults.faults,
            a.query_name + ": oracle failures == injected faults");
      check(runtime::resilience::ProbeCoverage(r.calls, r.failures) < 1.0,
            a.query_name + ": per-query coverage marked partial");
      check(r.attempts == r.calls + r.retries,
            a.query_name + ": attempts == calls + retries");
    }
    EmitBenchJson(eng.config(), "fault_sweep_degraded", degraded.metrics,
                  {{"fault_rate", 0.20},
                   {"retry_budget", 0.0},
                   {"probe_calls",
                    static_cast<double>(degraded.metrics.probe_calls)}});
  }

  if (failures == 0) {
    std::fprintf(stderr, "fault_sweep: PASS\n");
    return 0;
  }
  std::fprintf(stderr, "fault_sweep: %d assertion(s) FAILED\n", failures);
  return 1;
}

}  // namespace
}  // namespace costsense::bench

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(
      argc, argv, "fault_sweep",
      [](costsense::engine::Engine& eng, int, char**) {
        return costsense::bench::Run(eng);
      });
}
