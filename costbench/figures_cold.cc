// figures-cold: the Figures 5-7 path. Each pass runs exp::FigureRunner's
// AnalyzeMany + GtcSeries over the quick query set under all three
// storage layouts, every pass with empty oracle caches, and byte-compares
// the rendered figure text with the committed golden output.
//
// The traced pass rebuilds the same analysis from public entry points
// (runtime::OracleStackBuilder, core::DiscoverCandidatePlans,
// core::WorstCaseOverPlansByLp) with timing decorators below and above
// the cache, and must reproduce FigureRunner's plans and series exactly.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "blackbox/narrow_optimizer.h"
#include "catalog/catalog.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "core/discovery.h"
#include "core/worst_case.h"
#include "costbench/report.h"
#include "costbench/trace.h"
#include "exp/figure_runner.h"
#include "exp/report.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "runtime/oracle_stack.h"
#include "runtime/thread_pool.h"
#include "storage/layout.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costbench {
namespace {

using costsense::Result;
using costsense::Status;
using costsense::exp::FigureRunner;
using costsense::exp::FigureSeries;
using costsense::exp::QueryAnalysis;
using costsense::storage::LayoutPolicy;

struct Figure {
  LayoutPolicy policy;
  const char* title;
  const char* golden_path;
};

constexpr Figure kFigures[] = {
    {LayoutPolicy::kSharedDevice,
     "Figure 5: worst-case GTC, all tables and indexes on one device",
     "tests/golden/expected/fig5_shared_device.stdout"},
    {LayoutPolicy::kPerTableAndIndex,
     "Figure 6: worst-case GTC, tables and indexes on separate devices",
     "tests/golden/expected/fig6_separate_devices.stdout"},
    {LayoutPolicy::kPerTableColocated,
     "Figure 7: worst-case GTC, one device per table with its indexes",
     "tests/golden/expected/fig7_colocated.stdout"},
};
constexpr size_t kNumFigures = sizeof(kFigures) / sizeof(kFigures[0]);

/// Everything a pass needs, built once per set-up.
struct FigureSetup {
  costsense::catalog::Catalog catalog;
  /// The quick query set, in report order.
  std::vector<costsense::query::Query> queries;
  /// The seeded order a pass runs the figures in. Query order within a
  /// figure stays fixed: it decides which pairs the pool starts first, so
  /// shuffling it would move wall time with the seed.
  std::vector<size_t> figure_order;
  FigureRunner::Options options;
  std::vector<std::string> golden;
};

Result<std::unique_ptr<FigureSetup>> MakeSetup(
    uint64_t seed, costsense::runtime::ThreadPool& pool) {
  auto s = std::make_unique<FigureSetup>(
      FigureSetup{costsense::tpch::MakeTpchCatalog(100.0), {}, {}, {}, {}});
  for (int qn : costsense::exp::QuickQueryNumbers()) {
    s->queries.push_back(costsense::tpch::MakeTpchQuery(s->catalog, qn));
  }
  s->figure_order.resize(kNumFigures);
  std::iota(s->figure_order.begin(), s->figure_order.end(), size_t{0});
  costsense::Rng(seed).Shuffle(s->figure_order);
  // The quick figure budget, as the fig5/6/7 binaries use in quick mode.
  s->options.deltas = {2, 10, 100, 1000};
  s->options.discovery.random_samples = 16;
  s->options.discovery.sampled_vertices = 48;
  s->options.discovery.bisection_depth = 3;
  s->options.discovery.completeness_rounds = 1;
  s->options.pool = &pool;
  for (const Figure& f : kFigures) {
    std::ifstream in(f.golden_path, std::ios::binary);
    if (!in) {
      return Status::NotFound(
          costsense::StrFormat("golden file %s not readable", f.golden_path));
    }
    std::ostringstream text;
    text << in.rdbuf();
    s->golden.push_back(text.str());
  }
  return s;
}

std::string RenderFigure(const char* title,
                         const std::vector<FigureSeries>& series) {
  return costsense::exp::RenderFigureTable(title, series) + "\nCSV:\n" +
         costsense::exp::RenderFigureCsv(series);
}

/// One pass over the three figures: per figure, per query (report order).
struct PassResult {
  double wall_s = 0.0;
  double figure_ms[kNumFigures] = {};
  std::vector<std::vector<QueryAnalysis>> analyses;
  std::vector<std::vector<FigureSeries>> series;
  /// Pairs whose analysis or series failed, plus figures whose text
  /// differs from the golden output.
  uint64_t failed = 0;
  size_t incomplete_pairs = 0;
  size_t candidate_plans = 0;
};

/// Checks the pass's figure text against the golden bytes and counts the
/// incomplete pairs.
void CheckPass(const FigureSetup& s, PassResult& pass, Report& report) {
  for (size_t f = 0; f < kNumFigures; ++f) {
    if (pass.series[f].size() != s.queries.size()) continue;  // counted
    if (RenderFigure(kFigures[f].title, pass.series[f]) != s.golden[f]) {
      ++pass.failed;
      report.Fail(costsense::StrFormat("%s text differs from %s",
                                       kFigures[f].title,
                                       kFigures[f].golden_path));
    }
    for (const QueryAnalysis& a : pass.analyses[f]) {
      if (!a.discovery_complete) ++pass.incomplete_pairs;
      pass.candidate_plans += a.candidate_plans.size();
    }
  }
}

/// The untraced pass: FigureRunner, exactly as the figure binaries run it.
PassResult RunPass(const FigureSetup& s, Report& report) {
  const FigureRunner runner(s.catalog, s.options);
  PassResult pass;
  pass.analyses.resize(kNumFigures);
  pass.series.resize(kNumFigures);
  const int64_t start = NowNs();
  for (size_t f : s.figure_order) {
    const int64_t t0 = NowNs();
    for (Result<QueryAnalysis>& a :
         runner.AnalyzeMany(s.queries, kFigures[f].policy)) {
      Result<FigureSeries> fs =
          a.ok() ? runner.GtcSeries(*a) : Result<FigureSeries>(a.status());
      if (!fs.ok()) {
        ++pass.failed;
        report.Fail("analysis failed: " + fs.status().ToString());
        continue;
      }
      pass.series[f].push_back(std::move(*fs));
      pass.analyses[f].push_back(std::move(*a));
    }
    pass.figure_ms[f] = Ms(NowNs() - t0);
  }
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  CheckPass(s, pass, report);
  return pass;
}

/// Cache counters summed over a traced pass's per-pair stacks.
struct CacheTotals {
  size_t hits = 0;
  size_t misses = 0;
  size_t entries = 0;
  size_t evictions = 0;
};

struct TracedAnalysis {
  Result<QueryAnalysis> analysis = Status::Internal("not run");
  costsense::runtime::OracleCacheStats cache;
};

/// FigureRunner::Analyze's default path rebuilt from public entry points,
/// with an optimizer decorator below the cache and a lookup decorator
/// above it. Spans carry `id`, one per (query, layout).
TracedAnalysis TracedAnalyze(const FigureSetup& s,
                             const costsense::query::Query& query,
                             LayoutPolicy policy, Tracer& tracer,
                             uint64_t id) {
  ScopedSpan analysis_span(tracer, Layer::kAnalysis, id);
  const costsense::storage::StorageLayout layout(
      policy, s.catalog, costsense::query::ReferencedTables(query));
  const costsense::storage::ResourceSpace space = layout.BuildResourceSpace();
  const costsense::opt::Optimizer optimizer(s.catalog, layout, space);
  costsense::blackbox::NarrowOptimizer narrow(optimizer, query,
                                              /*white_box=*/true);
  TimingOracle below(narrow, tracer, Layer::kOpt, id);
  costsense::runtime::OracleStackBuilder builder;
  builder.WithCache(s.options.cache);
  costsense::runtime::OracleStack stack = builder.Build(below);
  TimingOracle above(stack.cache(), tracer, Layer::kCache, id);

  QueryAnalysis out;
  out.query_name = query.name;
  out.policy = policy;
  out.dims = space.dims();
  out.baseline = space.BaselineCosts();
  out.dim_info = space.dim_info();
  const costsense::core::OracleResult initial = above.Optimize(out.baseline);
  TracedAnalysis result;
  if (!initial.usage.has_value()) {
    result.analysis = Status::Internal("white-box oracle did not reveal usage");
    return result;
  }
  out.initial_plan_id = initial.plan_id;
  out.initial_usage = *initial.usage;

  const costsense::core::Box box = costsense::core::Box::MultiplicativeBand(
      out.baseline, s.options.deltas.back());
  costsense::Rng rng(s.options.seed);
  costsense::core::DiscoveryOptions discovery = s.options.discovery;
  discovery.pool = s.options.pool;
  Result<costsense::core::DiscoveryResult> d = Status::Internal("not run");
  {
    ScopedSpan discovery_span(tracer, Layer::kDiscovery, id);
    d = costsense::core::DiscoverCandidatePlans(above, box, rng, discovery);
  }
  result.cache = stack.cache().stats();
  if (!d.ok()) {
    result.analysis = d.status();
    return result;
  }
  for (costsense::core::DiscoveredPlan& dp : d->plans) {
    out.candidate_plans.push_back(std::move(dp.plan));
  }
  out.oracle_calls = narrow.calls();
  out.discovery_complete = d->complete;
  out.cache_hits = result.cache.hits;
  out.cache_misses = result.cache.misses;
  result.analysis = std::move(out);
  return result;
}

/// FigureRunner::GtcSeries rebuilt with one span per worst-case LP.
Result<FigureSeries> TracedSeries(const FigureSetup& s,
                                  const QueryAnalysis& analysis,
                                  Tracer& tracer, uint64_t id) {
  FigureSeries series;
  series.query_name = analysis.query_name;
  series.num_candidate_plans = analysis.candidate_plans.size();
  series.constant_bound =
      costsense::core::WorstCaseConstantBound(analysis.candidate_plans);
  series.has_complementary_plans = std::isinf(series.constant_bound);
  const std::vector<double>& deltas = s.options.deltas;
  std::vector<std::optional<Result<costsense::core::WorstCaseResult>>> slots(
      deltas.size());
  const Status pool_status = costsense::runtime::ForEachIndex(
      s.options.pool, deltas.size(), [&](size_t i) {
        const costsense::core::Box box =
            costsense::core::Box::MultiplicativeBand(analysis.baseline,
                                                     deltas[i]);
        ScopedSpan lp_span(tracer, Layer::kLp, id);
        slots[i].emplace(costsense::core::WorstCaseOverPlansByLp(
            analysis.initial_usage, analysis.candidate_plans, box,
            s.options.pool));
        return Status::Ok();
      });
  COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok
  for (size_t i = 0; i < deltas.size(); ++i) {
    const Result<costsense::core::WorstCaseResult>& wc = *slots[i];
    if (!wc.ok()) return wc.status();
    series.points.push_back({deltas[i], wc->gtc, wc->worst_rival});
  }
  return series;
}

PassResult RunTracedPass(const FigureSetup& s, Tracer& tracer,
                         CacheTotals& cache, Report& report) {
  PassResult pass;
  pass.analyses.resize(kNumFigures);
  pass.series.resize(kNumFigures);
  const int64_t start = NowNs();
  for (size_t f : s.figure_order) {
    const int64_t t0 = NowNs();
    const uint64_t id0 = f * s.queries.size();
    std::vector<TracedAnalysis> results = s.options.pool->ParallelMap(
        s.queries, [&](size_t q, const costsense::query::Query& query) {
          return TracedAnalyze(s, query, kFigures[f].policy, tracer, id0 + q);
        });
    for (size_t q = 0; q < results.size(); ++q) {
      TracedAnalysis& r = results[q];
      cache.hits += r.cache.hits;
      cache.misses += r.cache.misses;
      cache.entries += r.cache.entries;
      cache.evictions += r.cache.evictions;
      Result<FigureSeries> fs =
          r.analysis.ok() ? TracedSeries(s, *r.analysis, tracer, id0 + q)
                          : Result<FigureSeries>(r.analysis.status());
      if (!fs.ok()) {
        ++pass.failed;
        report.Fail("traced analysis failed: " + fs.status().ToString());
        continue;
      }
      pass.series[f].push_back(std::move(*fs));
      pass.analyses[f].push_back(std::move(*r.analysis));
    }
    pass.figure_ms[f] = Ms(NowNs() - t0);
  }
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  CheckPass(s, pass, report);
  return pass;
}

bool SamePlans(const QueryAnalysis& a, const QueryAnalysis& b) {
  if (a.query_name != b.query_name || a.dims != b.dims ||
      a.initial_plan_id != b.initial_plan_id ||
      !(a.initial_usage == b.initial_usage) ||
      a.discovery_complete != b.discovery_complete ||
      a.candidate_plans.size() != b.candidate_plans.size()) {
    return false;
  }
  for (size_t i = 0; i < a.candidate_plans.size(); ++i) {
    if (a.candidate_plans[i].plan_id != b.candidate_plans[i].plan_id ||
        !(a.candidate_plans[i].usage == b.candidate_plans[i].usage)) {
      return false;
    }
  }
  return true;
}

bool SameSeries(const FigureSeries& a, const FigureSeries& b) {
  if (a.query_name != b.query_name ||
      a.num_candidate_plans != b.num_candidate_plans ||
      a.has_complementary_plans != b.has_complementary_plans ||
      a.constant_bound != b.constant_bound ||
      a.points.size() != b.points.size()) {
    return false;
  }
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].delta != b.points[i].delta ||
        a.points[i].gtc != b.points[i].gtc ||
        a.points[i].worst_rival != b.points[i].worst_rival) {
      return false;
    }
  }
  return true;
}

/// The traced composition must reproduce FigureRunner exactly.
void CheckTracedMatches(const PassResult& runner, const PassResult& traced,
                        Report& report) {
  for (size_t f = 0; f < kNumFigures; ++f) {
    const bool same_size =
        runner.analyses[f].size() == traced.analyses[f].size() &&
        runner.series[f].size() == traced.series[f].size();
    for (size_t q = 0; same_size && q < runner.analyses[f].size(); ++q) {
      if (!SamePlans(runner.analyses[f][q], traced.analyses[f][q])) {
        report.Fail(costsense::StrFormat(
            "%s: traced plans differ from FigureRunner's for %s",
            kFigures[f].title, runner.analyses[f][q].query_name.c_str()));
      }
      if (!SameSeries(runner.series[f][q], traced.series[f][q])) {
        report.Fail(costsense::StrFormat(
            "%s: traced GTC series differs from FigureRunner's for %s",
            kFigures[f].title, runner.series[f][q].query_name.c_str()));
      }
    }
    if (!same_size) {
      report.Fail(costsense::StrFormat(
          "%s: traced pass analysed a different pair count",
          kFigures[f].title));
    }
  }
}

}  // namespace

Report RunFiguresCold(const Args& args) {
  Report report;
  costsense::runtime::ThreadPool pool(kThreads);

  // Set-up, repeated for a steady median: catalog, queries, options,
  // golden text.
  std::vector<double> setup_s;
  std::unique_ptr<FigureSetup> setup;
  for (int i = 0; i < 1000; ++i) {
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<FigureSetup>> s = MakeSetup(args.seed, pool);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s.ok()) {
      report.Fail(s.status().ToString());
      report.attempted = 1;
      report.failed = 1;
      return report;
    }
    setup = std::move(*s);
  }
  const size_t pairs_per_pass = kNumFigures * setup->queries.size();

  // Untraced passes (trace 0), or untraced and traced passes alternating
  // (trace 1) so both see the same host conditions; at least one traced.
  std::vector<PassResult> passes;
  std::vector<PassResult> traced;
  std::vector<TraceSummary> summaries;
  std::vector<double> traced_cpu_s;
  CacheTotals cache;
  double untraced_cpu_s = 0.0;
  const costsense::runtime::PoolStats pool_before = pool.stats();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    const double cpu0 = ProcessCpuSeconds();
    passes.push_back(RunPass(*setup, report));
    untraced_cpu_s += ProcessCpuSeconds() - cpu0;
    if (args.trace && (traced.empty() || NowNs() < deadline)) {
      Tracer tracer;
      CacheTotals pass_cache;
      const double cpu1 = ProcessCpuSeconds();
      traced.push_back(RunTracedPass(*setup, tracer, pass_cache, report));
      traced_cpu_s.push_back(ProcessCpuSeconds() - cpu1);
      summaries.push_back(Summarize(tracer.Take()));
      cache = pass_cache;
      CheckTracedMatches(passes.back(), traced.back(), report);
    }
  } while (NowNs() < deadline);
  const costsense::runtime::PoolStats pool_after = pool.stats();

  std::vector<double> pass_wall_s;
  double total_wall_s = 0.0;
  for (const PassResult& p : passes) {
    pass_wall_s.push_back(p.wall_s);
    total_wall_s += p.wall_s;
    report.attempted += pairs_per_pass;
    report.failed += p.failed;
    std::fprintf(stderr,
                 "figures-cold: pass wall %.3f s "
                 "(fig5/6/7 %.0f/%.0f/%.0f ms)\n",
                 p.wall_s, p.figure_ms[0], p.figure_ms[1], p.figure_ms[2]);
    // Discovery is deterministic: every pass must agree on completeness.
    if (p.incomplete_pairs != passes.front().incomplete_pairs ||
        p.candidate_plans != passes.front().candidate_plans) {
      report.Fail("incomplete-pair or plan counts differ between passes");
    }
  }
  for (const PassResult& p : traced) {
    report.attempted += pairs_per_pass;
    report.failed += p.failed;
  }
  const double incomplete =
      static_cast<double>(passes.front().incomplete_pairs);
  std::fprintf(stderr,
               "figures-cold: %zu pass(es), %zu traced, incomplete_pairs=%g "
               "candidate_plans=%zu\n",
               passes.size(), traced.size(), incomplete,
               passes.front().candidate_plans);

  // What a user waits for: all three figures.
  std::vector<double> pass_ms;
  for (double w : pass_wall_s) pass_ms.push_back(w * 1e3);
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("cpu_s", untraced_cpu_s / static_cast<double>(passes.size()),
               "s");
    report.Add("latency_p50_ms", Percentile(pass_ms, 0.5), "ms");
    report.Add("complete_share",
               1.0 - incomplete / static_cast<double>(pairs_per_pass), "1");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return report;
  }

  if (cache.evictions != 0) {
    report.Fail("oracle cache evicted entries; the workload must fit");
  }
  if (traced.front().incomplete_pairs != passes.front().incomplete_pairs) {
    report.Fail("traced pass disagrees on incomplete pairs");
  }
  // Per-layer figures: medians over the traced passes for times, the last
  // traced pass for counts.
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const TraceSummary& t : summaries) v.push_back(field(t));
    return Median(v);
  };
  const TraceSummary& last = summaries.back();
  const double opt_busy_ms =
      median_of([](const TraceSummary& t) { return t.opt_busy_ms; });
  std::vector<double> opt_share;
  for (size_t i = 0; i < summaries.size(); ++i) {
    opt_share.push_back(summaries[i].opt_cpu_ms / (traced_cpu_s[i] * 1e3));
  }
  const size_t lookups = cache.hits + cache.misses;
  std::vector<double> traced_wall_s;
  for (const PassResult& p : traced) traced_wall_s.push_back(p.wall_s);

  report.Add("load.throughput_rps",
             static_cast<double>(pairs_per_pass * passes.size()) /
                 total_wall_s,
             "1/s");
  report.Add("load.latency_p90_ms", Percentile(pass_ms, 0.9), "ms");
  report.Add("load.wall_s", Median(pass_wall_s), "s");
  report.Add("opt.calls", static_cast<double>(last.opt_calls), "count");
  report.Add("opt.busy_ms", opt_busy_ms, "ms");
  report.Add("opt.us_per_call",
             last.opt_calls == 0
                 ? 0.0
                 : opt_busy_ms * 1e3 / static_cast<double>(last.opt_calls),
             "us");
  report.Add("opt.cpu_share", Median(opt_share), "1");
  report.Add("cache.lookups", static_cast<double>(lookups), "count");
  report.Add("cache.hit_rate",
             lookups == 0 ? 0.0
                          : static_cast<double>(cache.hits) /
                                static_cast<double>(lookups),
             "1");
  report.Add("cache.dup_misses",
             static_cast<double>(cache.misses - cache.entries), "count");
  report.Add("cache.evictions", static_cast<double>(cache.evictions),
             "count");
  report.Add("cache.self_ms",
             median_of([](const TraceSummary& t) { return t.cache_self_ms; }),
             "ms");
  report.Add("discovery.wall_ms",
             median_of([](const TraceSummary& t) {
               return t.discovery_wall_ms;
             }),
             "ms");
  report.Add("discovery.self_ms",
             median_of([](const TraceSummary& t) {
               return t.discovery_self_ms;
             }),
             "ms");
  report.Add("discovery.probes_per_plan",
             static_cast<double>(last.cache_lookups) /
                 static_cast<double>(traced.back().candidate_plans),
             "1");
  report.Add("lp.calls", static_cast<double>(last.lp_calls), "count");
  report.Add("lp.busy_ms",
             median_of([](const TraceSummary& t) { return t.lp_busy_ms; }),
             "ms");
  report.Add("pool.tasks",
             static_cast<double>(pool_after.tasks_run - pool_before.tasks_run) /
                 static_cast<double>((passes.size() + traced.size()) *
                                     pairs_per_pass),
             "count");
  report.Add("pool.queue_high_water",
             static_cast<double>(pool_after.queue_high_water), "count");
  report.Add("pool.effective_cores", untraced_cpu_s / total_wall_s, "1");
  report.Add("analyze.max_query_ms",
             median_of([](const TraceSummary& t) { return t.max_analysis_ms; }),
             "ms");
  // No serve stack on this path.
  for (const char* name :
       {"serve.dispatch_p50_ms", "serve.first_record_p50_ms",
        "serve.stream_p50_ms", "serve.server_p50_ms"}) {
    report.Add(name, 0.0, "ms");
  }
  report.Add("admission.peak_queued", 0.0, "count");
  report.Add("admission.rejected", 0.0, "count");
  report.Add("protocol.us_per_request", 0.0, "us");
  report.Add("trace.overhead", Median(traced_wall_s) - Median(pass_wall_s),
             "s");
  report.Add("incomplete_pairs", incomplete, "count");
  report.Add("error_rate",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "1");
  return report;
}

}  // namespace costbench
