#include "exp/figure_runner.h"

#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "core/bounds.h"
#include "core/worst_case.h"

namespace costsense::exp {

PairContext::PairContext(const catalog::Catalog& catalog, query::Query query,
                         storage::LayoutPolicy policy,
                         const runtime::OracleStackBuilder& builder)
    : query_(std::move(query)),
      layout_(policy, catalog, query::ReferencedTables(query_)),
      space_(layout_.BuildResourceSpace()),
      optimizer_(catalog, layout_, space_),
      narrow_(optimizer_, query_, /*white_box=*/true),
      // One snapshot bucket per pair, spelled the same by figure runs and
      // the server so either can warm from the other's snapshot.
      stack_(builder.Build(
          narrow_, query_.name + "/" + storage::LayoutPolicyName(policy))),
      baseline_(space_.BaselineCosts()) {
  const core::OracleResult initial = stack_.cache().Optimize(baseline_);
  COSTSENSE_CHECK(initial.usage.has_value());
  initial_plan_id_ = initial.plan_id;
  initial_usage_ = *initial.usage;
}

Result<core::DiscoveryResult> PairContext::Discover(
    core::FalliblePlanOracle& oracle, const core::Box& box, uint64_t seed,
    core::DiscoveryOptions options, runtime::ThreadPool& pool) const {
  Rng rng(seed);
  options.pool = &pool;
  return core::DiscoverCandidatePlans(oracle, box, rng, options);
}

FigureRunner::FigureRunner(const catalog::Catalog& catalog, Options options)
    : catalog_(catalog), options_(std::move(options)) {
  builder_.WithCache(options_.cache);
  builder_.WithStore(options_.store);
}

runtime::ThreadPool& FigureRunner::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : runtime::ThreadPool::Global();
}

Result<QueryAnalysis> FigureRunner::Analyze(
    const query::Query& query, storage::LayoutPolicy policy) const {
  PairContext pair(catalog_, query, policy, builder_);
  // The fallible half of the probe chain (runtime/oracle_stack.h) above
  // the pair's cache, which collapses discovery's revisited cost points
  // (the box center, shared segment midpoints) into one optimizer
  // invocation each — concurrently safe, since misses compute outside the
  // shard locks against the stateless optimizer.
  runtime::ProbeChain probes(pair.stack().cache(), options_.probes);

  QueryAnalysis out;
  out.query_name = query.name;
  out.policy = policy;
  out.dims = pair.space().dims();
  out.baseline = pair.baseline();
  out.dim_info = pair.space().dim_info();
  out.initial_plan_id = pair.initial_plan_id();
  out.initial_usage = pair.initial_usage();

  // Discover candidate optimal plans over the widest error band; plan
  // sets for narrower bands are subsets, so one discovery serves every
  // delta (usage vectors are box-independent). Probes the chain cannot
  // answer are skipped and counted as degraded points.
  const core::Box box =
      core::Box::MultiplicativeBand(out.baseline, options_.deltas.back());
  Result<core::DiscoveryResult> d = pair.Discover(
      probes.oracle(), box, options_.seed, options_.discovery, pool());
  if (!d.ok()) return d.status();
  for (core::DiscoveredPlan& dp : d->plans) {
    out.candidate_plans.push_back(std::move(dp.plan));
  }
  out.oracle_calls = pair.oracle_calls();
  out.discovery_complete = d->complete;
  const runtime::OracleCacheStats cache = pair.stack().cache().stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_imported = cache.imported;
  out.probes = probes.telemetry();
  out.degraded_points = d->failed_probes;
  pair.stack().PublishToStore();
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

  // One exact linear-fractional program per rival and delta, all on this
  // thread: each is microseconds, less than a pool hand-off.
  for (double delta : options_.deltas) {
    const core::Box box =
        core::Box::MultiplicativeBand(analysis.baseline, delta);
    Result<core::WorstCaseResult> wc = core::WorstCaseOverPlansByLp(
        analysis.initial_usage, analysis.candidate_plans, box, nullptr);
    if (!wc.ok()) return wc.status();
    GtcPoint p;
    p.delta = delta;
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
