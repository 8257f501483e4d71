#include "exp/figure_runner.h"

#include <cmath>
#include <optional>
#include <utility>

#include "blackbox/narrow_optimizer.h"
#include "common/macros.h"
#include "core/bounds.h"
#include "core/worst_case.h"
#include "opt/optimizer.h"

namespace costsense::exp {

FigureRunner::FigureRunner(const catalog::Catalog& catalog, Options options)
    : catalog_(catalog), options_(std::move(options)) {}

runtime::ThreadPool& FigureRunner::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : runtime::ThreadPool::Global();
}

Result<QueryAnalysis> FigureRunner::Analyze(
    const query::Query& query, storage::LayoutPolicy policy) const {
  const storage::StorageLayout layout(policy, catalog_,
                                      query::ReferencedTables(query));
  const storage::ResourceSpace space = layout.BuildResourceSpace();
  const opt::Optimizer optimizer(catalog_, layout, space);
  blackbox::NarrowOptimizer narrow(optimizer, query, options_.white_box);
  // The per-query probe chain (runtime/oracle_stack.h). The memoizing
  // tier collapses discovery's revisited cost points (the box center,
  // shared segment midpoints) into one optimizer invocation each —
  // concurrently safe, since misses compute outside the shard locks
  // against the stateless optimizer. The persistence scope is one
  // snapshot bucket per (query, layout) pair.
  runtime::OracleStack stack =
      runtime::OracleStackBuilder()
          .WithCache(options_.cache)
          .WithStore(options_.store)
          .Build(narrow, query.name + "/" + storage::LayoutPolicyName(policy));
  runtime::ProbeChain probes(stack.cache(), options_.probes);
  core::FalliblePlanOracle& oracle = probes.oracle();

  QueryAnalysis out;
  out.query_name = query.name;
  out.policy = policy;
  out.dims = space.dims();
  out.baseline = space.BaselineCosts();
  out.dim_info = space.dim_info();
  out.cache_imported = stack.cache().stats().imported;

  // The initial plan: optimal at the (estimated) baseline costs, i.e. the
  // plan a DBA gets by leaving DB2's defaults in place (Section 8.1). The
  // baseline probe also warms the cache for discovery's center probe (the
  // box center *is* the baseline for multiplicative bands). A probe the
  // chain cannot answer does not stop the analysis: the in-process
  // optimizer answers directly (the DBA can always EXPLAIN the current
  // plan) and the point counts as degraded. Narrow mode hides usage
  // vectors, so there the optimizer always answers and the probe only
  // warms the cache.
  size_t degraded_points = 0;
  const Result<core::OracleResult> initial = oracle.TryOptimize(out.baseline);
  if (!initial.ok()) ++degraded_points;
  if (options_.white_box && initial.ok()) {
    if (!initial->usage.has_value()) {
      return Status::Internal("white-box oracle did not reveal usage");
    }
    out.initial_plan_id = initial->plan_id;
    out.initial_usage = *initial->usage;
  } else {
    const Result<opt::Optimized> direct =
        optimizer.Optimize(query, out.baseline);
    if (!direct.ok()) return direct.status();
    out.initial_plan_id = direct->plan->id;
    out.initial_usage = direct->plan->usage;
  }

  // Discover candidate optimal plans over the widest error band; plan
  // sets for narrower bands are subsets, so one discovery serves every
  // delta (usage vectors are box-independent).
  const double delta_max = options_.deltas.back();
  const core::Box box = core::Box::MultiplicativeBand(out.baseline, delta_max);
  Rng rng(options_.seed);
  core::DiscoveryOptions discovery = options_.discovery;
  discovery.pool = &pool();
  Result<core::DiscoveryResult> d =
      core::DiscoverCandidatePlans(oracle, box, rng, discovery);
  if (!d.ok()) return d.status();
  for (core::DiscoveredPlan& dp : d->plans) {
    out.candidate_plans.push_back(std::move(dp.plan));
  }
  out.oracle_calls = narrow.calls();
  out.discovery_complete = d->complete;
  const runtime::OracleCacheStats cache = stack.cache().stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.probes = probes.telemetry();
  out.degraded_points = degraded_points + d->failed_probes;
  stack.PublishToStore();
  return out;
}

std::vector<Result<QueryAnalysis>> FigureRunner::AnalyzeMany(
    const std::vector<query::Query>& queries,
    storage::LayoutPolicy policy) const {
  return pool().ParallelMap(
      queries, [&](size_t, const query::Query& q) -> Result<QueryAnalysis> {
        return Analyze(q, policy);
      });
}

Result<FigureSeries> FigureRunner::GtcSeries(
    const QueryAnalysis& analysis) const {
  FigureSeries series;
  series.query_name = analysis.query_name;
  series.num_candidate_plans = analysis.candidate_plans.size();
  series.constant_bound =
      core::WorstCaseConstantBound(analysis.candidate_plans);
  series.has_complementary_plans = std::isinf(series.constant_bound);

  // The per-delta analyses are independent, so fan them out across the
  // pool (each one's per-rival LPs nest onto the same pool) and reduce in
  // delta order afterwards — the emitted series is byte-identical to the
  // serial loop at any thread count.
  const std::vector<double>& deltas = options_.deltas;
  std::vector<std::optional<Result<core::WorstCaseResult>>> slots(
      deltas.size());
  const Status pool_status =
      runtime::ForEachIndex(&pool(), deltas.size(), [&](size_t i) {
        const core::Box box =
            core::Box::MultiplicativeBand(analysis.baseline, deltas[i]);
        Result<core::WorstCaseResult> wc = core::WorstCaseOverPlansByLp(
            analysis.initial_usage, analysis.candidate_plans, box, &pool());
        slots[i].emplace(std::move(wc));
        return Status::Ok();
      });
  COSTSENSE_CHECK(pool_status.ok());  // bodies always return Ok
  for (size_t i = 0; i < deltas.size(); ++i) {
    const Result<core::WorstCaseResult>& wc = *slots[i];
    if (!wc.ok()) return wc.status();
    GtcPoint p;
    p.delta = deltas[i];
    p.gtc = wc->gtc;
    p.worst_rival = wc->worst_rival;
    series.points.push_back(std::move(p));
  }
  return series;
}

core::ComplementarityReport FigureRunner::Complementarity(
    const QueryAnalysis& analysis) const {
  return core::AnalyzePlanSet(analysis.candidate_plans, analysis.dim_info);
}

}  // namespace costsense::exp
