#include "serve/dispatcher.h"

#include <algorithm>
#include <string>
#include <vector>

#include "blackbox/narrow_optimizer.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/worst_case.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "runtime/sink/stages.h"
#include "storage/layout.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::serve {

/// The shared half of a request: one TPC-H query under one storage layout,
/// its optimizer, and the long-lived memoizing cache every request against
/// this pair probes through. Immutable after construction except through
/// the thread-safe oracle layers.
struct Dispatcher::QueryContext {
  QueryContext(const catalog::Catalog& catalog, query::Query q,
               storage::LayoutPolicy policy,
               const runtime::OracleStackBuilder& builder)
      : query(std::move(q)),
        layout(policy, catalog, query::ReferencedTables(query)),
        space(layout.BuildResourceSpace()),
        optimizer(catalog, layout, space),
        narrow(optimizer, query, /*white_box=*/true),
        // The persistence scope matches the figure drivers'
        // "<query>/<layout>" spelling, so a server restart can warm from a
        // sweep's snapshot and vice versa.
        stack(builder.Build(
            narrow, query.name + "/" + storage::LayoutPolicyName(policy))),
        baseline(space.BaselineCosts()) {
    // The initial plan — optimal at the DB2-default baseline — is a
    // property of the (query, layout) pair, so it is computed once here
    // and shared by every request. The probe also warms the cache at the
    // box center every multiplicative band shares.
    const core::OracleResult initial = stack.cache().Optimize(baseline);
    COSTSENSE_CHECK(initial.usage.has_value());
    initial_plan_id = initial.plan_id;
    initial_usage = *initial.usage;
  }

  query::Query query;
  storage::StorageLayout layout;
  storage::ResourceSpace space;
  opt::Optimizer optimizer;
  blackbox::NarrowOptimizer narrow;
  runtime::OracleStack stack;
  core::CostVector baseline;
  std::string initial_plan_id;
  core::UsageVector initial_usage;
};

Dispatcher::~Dispatcher() = default;

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      catalog_(tpch::MakeTpchCatalog(options_.scale_factor)) {
  if (!options_.cache_path.empty()) {
    runtime::CacheStoreOptions store_options;
    store_options.path = options_.cache_path;
    store_options.catalog_hash = catalog_.Fingerprint();
    store_options.mantissa_bits = options_.cache.mantissa_bits;
    store_ = std::make_unique<runtime::CacheStore>(std::move(store_options));
  }
  builder_.WithCache(options_.cache);
  builder_.WithStore(store_.get());
}

Dispatcher::QueryContext& Dispatcher::GetContext(
    uint16_t query_number, storage::LayoutPolicy policy) {
  const auto key = std::make_pair(query_number, static_cast<int>(policy));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = contexts_.find(key);
  if (it == contexts_.end()) {
    // Materialization runs under the dispatcher lock: it costs one
    // baseline optimization, and serializing it guarantees exactly one
    // shared cache per (query, policy) no matter how requests race.
    it = contexts_
             // costsense-lint: allow(R8, "context materialization must be atomic with map insertion so racing requests share one cache per (query, policy)")
             .emplace(key, std::make_unique<QueryContext>(
                               catalog_,
                               tpch::MakeTpchQuery(
                                   catalog_, static_cast<int>(query_number)),
                               policy, builder_))
             .first;
  }
  return *it->second;
}

AnalysisResponse Dispatcher::Handle(const AnalysisRequest& request) {
  AnalysisResponse response;
  runtime::sink::StringSink body(&response.body);
  const Status st = HandleStreaming(request, body);
  if (!st.ok()) {
    response.code = st.code();
    response.body = st.message();  // drops any partially rendered records
  }
  return response;
}

Status Dispatcher::HandleStreaming(const AnalysisRequest& request,
                                   runtime::sink::Sink& records) {
  QueryContext& ctx = GetContext(request.query_number, request.policy);
  const Status st = Render(request, ctx, records);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    if (!st.ok()) ++failed_requests_;
  }
  return st;
}

Status Dispatcher::Render(const AnalysisRequest& request, QueryContext& ctx,
                          runtime::sink::Sink& out) {
  // The per-request half of the oracle chain (runtime/oracle_stack.h):
  // a retry tier carrying the request deadline, over the optional fault
  // injector, over the long-lived shared cache. Deadlines and faults stay
  // request-local; computed points are shared.
  runtime::ProbeOptions probe_options;
  probe_options.faults = options_.faults;
  probe_options.retry.max_retries = 0;
  probe_options.retry.run_deadline_ns = request.deadline_ns != 0
                                            ? request.deadline_ns
                                            : options_.default_deadline_ns;
  probe_options.clock = options_.clock;
  runtime::ProbeChain probes(ctx.stack.cache(), probe_options);

  // Plans are discovered once over the widest requested band; candidate
  // sets for narrower bands are subsets (usage vectors are
  // box-independent), so one discovery serves every delta. A v2 request
  // carrying an explicit box replaces that band box for discovery (and
  // for the worst-case LP below); its dimension count must match the
  // query's resource space.
  if (request.box.has_value() &&
      request.box->dims() != ctx.space.dims()) {
    return Status::InvalidArgument(StrFormat(
        "feasible-region box has %zu dimension(s); %s under %s spans %zu",
        request.box->dims(), ctx.query.name.c_str(),
        storage::LayoutPolicyName(request.policy), ctx.space.dims()));
  }
  const double band =
      *std::max_element(request.deltas.begin(), request.deltas.end());
  const core::Box box =
      request.box.has_value()
          ? *request.box
          : core::Box::MultiplicativeBand(ctx.baseline, band);
  Rng rng(options_.seed);
  core::DiscoveryOptions discovery = options_.discovery;
  discovery.pool = options_.pool != nullptr ? options_.pool
                                            : &runtime::ThreadPool::Global();
  Result<core::DiscoveryResult> d =
      core::DiscoverCandidatePlans(probes.oracle(), box, rng, discovery);
  if (!d.ok()) return d.status();

  // A request whose budget ran out mid-analysis reports a typed error
  // rather than a silently partial body: partial plan sets are not
  // deterministic functions of the request, and the invariant is that
  // every kOk body is.
  const runtime::resilience::ResilienceStats rs =
      probes.telemetry().resilience;
  if (rs.failures > 0) {
    const std::string detail = StrFormat(
        "%zu of %zu oracle probe(s) failed; analysis "
        "abandoned to keep kOk bodies deterministic",
        rs.failures, rs.calls);
    if (rs.deadline_exceeded > 0) return Status::DeadlineExceeded(detail);
    return Status::Unavailable(detail);
  }

  std::vector<core::PlanUsage> plans;
  plans.reserve(d->plans.size());
  for (const core::DiscoveredPlan& dp : d->plans) plans.push_back(dp.plan);

  // Each logical piece is one Write: the prologue, then one record per
  // plan or delta line. Over a StringSink this concatenates into the v1
  // body; over the v2 record sink each piece is one length-prefixed
  // record, so a reassembled v2 stream equals the v1 body byte for byte.
  // The body keeps the v1 stamp under both protocols for that reason.
  Status st = out.Write(StrFormat(
      "costsense-serve v%u %s\n"
      "query=%s policy=%s dims=%zu\n"
      "band_delta=%s\n"
      "initial_plan=%s\n"
      "plans=%zu complete=%d\n",
      kProtocolVersion, AnalysisKindName(request.kind),
      ctx.query.name.c_str(), storage::LayoutPolicyName(request.policy),
      ctx.space.dims(), FormatDouble(band).c_str(),
      ctx.initial_plan_id.c_str(), plans.size(), d->complete ? 1 : 0));
  if (!st.ok()) return st;

  switch (request.kind) {
    case AnalysisKind::kDiscovery: {
      for (size_t i = 0; i < d->plans.size(); ++i) {
        st = out.Write(StrFormat("plan %zu: %s margin=%s\n", i,
                                 d->plans[i].plan.plan_id.c_str(),
                                 FormatDouble(d->plans[i].margin).c_str()));
        if (!st.ok()) return st;
      }
      break;
    }
    case AnalysisKind::kWorstCase:
    case AnalysisKind::kGtcSeries: {
      // Worst-case global relative cost per requested delta, in request
      // order, via the exact linear-fractional program (no further oracle
      // calls). kWorstCase is the single-delta special case; an explicit
      // box replaces its LP region (a gtcseries curve stays
      // delta-parameterized by definition).
      const size_t count =
          request.kind == AnalysisKind::kWorstCase ? 1 : request.deltas.size();
      for (size_t i = 0; i < count; ++i) {
        const bool explicit_box = request.kind == AnalysisKind::kWorstCase &&
                                  request.box.has_value();
        const core::Box delta_box =
            explicit_box ? *request.box
                         : core::Box::MultiplicativeBand(ctx.baseline,
                                                         request.deltas[i]);
        Result<core::WorstCaseResult> wc = core::WorstCaseOverPlansByLp(
            ctx.initial_usage, plans, delta_box, discovery.pool);
        if (!wc.ok()) return wc.status();
        st = out.Write(StrFormat("delta=%s gtc=%s rival=%s\n",
                                 FormatDouble(request.deltas[i]).c_str(),
                                 FormatDouble(wc->gtc).c_str(),
                                 wc->worst_rival.c_str()));
        if (!st.ok()) return st;
      }
      break;
    }
  }
  return Status::Ok();
}

Status Dispatcher::PersistCache() {
  if (store_ == nullptr) return Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, ctx] : contexts_) {
      ctx->stack.PublishToStore();
    }
  }
  return store_->Save();
}

DispatcherStats Dispatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DispatcherStats out;
  out.requests = requests_;
  out.failed_requests = failed_requests_;
  out.contexts = contexts_.size();
  for (const auto& [key, ctx] : contexts_) {
    const runtime::OracleCacheStats s = ctx->stack.cache().stats();
    out.cache.hits += s.hits;
    out.cache.misses += s.misses;
    out.cache.evictions += s.evictions;
    out.cache.entries += s.entries;
    out.cache.imported += s.imported;
  }
  if (store_ != nullptr) {
    out.persistent = true;
    out.store = store_->telemetry();
  }
  return out;
}

}  // namespace costsense::serve
