#include "serve/dispatcher.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/worst_case.h"
#include "runtime/sink/stages.h"
#include "storage/layout.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::serve {

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      catalog_(tpch::MakeTpchCatalog(100.0)) {
  if (!options_.cache_path.empty()) {
    runtime::CacheStoreOptions store_options;
    store_options.path = options_.cache_path;
    store_options.catalog_hash = catalog_.Fingerprint();
    store_ = std::make_unique<runtime::CacheStore>(std::move(store_options));
  }
  builder_.WithStore(store_.get());
}

Dispatcher::Pair& Dispatcher::GetPair(uint16_t query_number,
                                      storage::LayoutPolicy policy) {
  const auto key = std::make_pair(query_number, static_cast<int>(policy));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = contexts_.find(key);
  if (it == contexts_.end()) {
    // Materialization runs under the dispatcher lock: it costs one
    // baseline optimization, and serializing it guarantees exactly one
    // shared cache per (query, policy) no matter how requests race.
    it = contexts_
             // costsense-lint: allow(R8, "PairContext materialization must be atomic with map insertion so racing requests share one cache per (query, policy)")
             .emplace(key, std::make_unique<Pair>(
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
  Pair& pair = GetPair(request.query_number, request.policy);
  const Status st = Render(request, pair, records);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!st.ok()) failed_requests_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

namespace {

/// True when `a` and `b` hold the same doubles, bit for bit.
bool SameBits(const core::CostVector& a, const core::CostVector& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

}  // namespace

Dispatcher::PlansRef Dispatcher::Pair::FindLocked(const core::Box& box) const {
  for (const auto& [key, plans] : memo) {
    if (SameBits(key.lower(), box.lower()) &&
        SameBits(key.upper(), box.upper())) {
      return plans;
    }
  }
  return nullptr;
}

Status Dispatcher::Render(const AnalysisRequest& request, Pair& pair,
                          runtime::sink::Sink& out) {
  const exp::PairContext& ctx = pair.ctx;
  // Plans are discovered once per box: the widest requested band, or the
  // request's explicit box (which then also replaces the worst-case LP
  // region below); its dimension count must match the query's resource
  // space. Candidate sets for narrower bands are subsets (usage vectors
  // are box-independent), so one discovery serves every delta, and every
  // kind and delta set over the same box reads one memo entry.
  if (request.box.has_value() &&
      request.box->dims() != ctx.space().dims()) {
    return Status::InvalidArgument(StrFormat(
        "feasible-region box has %zu dimension(s); %s under %s spans %zu",
        request.box->dims(), ctx.query().name.c_str(),
        storage::LayoutPolicyName(request.policy), ctx.space().dims()));
  }
  const double band =
      *std::max_element(request.deltas.begin(), request.deltas.end());
  const core::Box box =
      request.box.has_value()
          ? *request.box
          : core::Box::MultiplicativeBand(ctx.baseline(), band);

  // A memoized box skips discovery, so no probe (and no deadline check)
  // runs for it.
  PlansRef found;
  {
    std::lock_guard<std::mutex> lock(pair.memo_mu);
    found = pair.FindLocked(box);
  }
  if (found != nullptr) {
    discoveries_recalled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    Result<PlansRef> discovered = Discover(request, pair, box);
    if (!discovered.ok()) return discovered.status();
    found = *std::move(discovered);
  }
  const DiscoveredPlans& d = *found;

  // Each logical piece is one Write: the prologue, then one record per
  // plan or delta line. Over a StringSink this concatenates into
  // Handle()'s body; over the record sink each piece is one
  // length-prefixed record, so a reassembled stream equals that body byte
  // for byte. The first line carries the kProtocolVersion body stamp.
  Status st = out.Write(StrFormat(
      "costsense-serve v%u %s\n"
      "query=%s policy=%s dims=%zu\n"
      "band_delta=%s\n"
      "initial_plan=%s\n"
      "plans=%zu complete=%d\n",
      kProtocolVersion, AnalysisKindName(request.kind),
      ctx.query().name.c_str(), storage::LayoutPolicyName(request.policy),
      ctx.space().dims(), FormatDouble(band).c_str(),
      ctx.initial_plan_id().c_str(), d.plans.size(), d.complete ? 1 : 0));
  if (!st.ok()) return st;

  switch (request.kind) {
    case AnalysisKind::kDiscovery: {
      for (size_t i = 0; i < d.plans.size(); ++i) {
        st = out.Write(StrFormat("plan %zu: %s margin=%s\n", i,
                                 d.plans[i].plan_id.c_str(),
                                 FormatDouble(d.margins[i]).c_str()));
        if (!st.ok()) return st;
      }
      break;
    }
    case AnalysisKind::kWorstCase:
    case AnalysisKind::kGtcSeries: {
      // Worst-case global relative cost per requested delta, in request
      // order, via the exact linear-fractional program (no further oracle
      // calls; microseconds per rival, so on this thread, not the pool).
      // kWorstCase is the single-delta special case; an explicit box
      // replaces its LP region (a gtcseries curve stays
      // delta-parameterized by definition).
      const size_t count =
          request.kind == AnalysisKind::kWorstCase ? 1 : request.deltas.size();
      for (size_t i = 0; i < count; ++i) {
        const bool explicit_box = request.kind == AnalysisKind::kWorstCase &&
                                  request.box.has_value();
        const core::Box delta_box =
            explicit_box ? *request.box
                         : core::Box::MultiplicativeBand(ctx.baseline(),
                                                         request.deltas[i]);
        Result<core::WorstCaseResult> wc = core::WorstCaseOverPlansByLp(
            ctx.initial_usage(), d.plans, delta_box, nullptr);
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

Result<Dispatcher::PlansRef> Dispatcher::Discover(
    const AnalysisRequest& request, Pair& pair, const core::Box& box) {
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
  runtime::ProbeChain probes(pair.ctx.stack().cache(), probe_options);
  runtime::ThreadPool& pool = options_.pool != nullptr
                                  ? *options_.pool
                                  : runtime::ThreadPool::Global();
  discoveries_.fetch_add(1, std::memory_order_relaxed);
  Result<core::DiscoveryResult> d = pair.ctx.Discover(
      probes.oracle(), box, options_.seed, options_.discovery, pool);
  if (!d.ok()) return d.status();

  // A request whose budget ran out mid-analysis reports a typed error
  // rather than a silently partial body: partial plan sets are not
  // deterministic functions of the request, and the invariant is that
  // every kOk body is. Only such fault-free outcomes are memoized.
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

  auto plans = std::make_shared<DiscoveredPlans>();
  plans->plans.reserve(d->plans.size());
  plans->margins.reserve(d->plans.size());
  for (core::DiscoveredPlan& dp : d->plans) {
    plans->plans.push_back(std::move(dp.plan));
    plans->margins.push_back(dp.margin);
  }
  plans->complete = d->complete;

  // A concurrent miss of the same box may have inserted first; both
  // computed the same plans, and the first insert wins.
  std::lock_guard<std::mutex> lock(pair.memo_mu);
  if (PlansRef first = pair.FindLocked(box)) return first;
  if (pair.memo.size() == kMemoBoxes) pair.memo.erase(pair.memo.begin());
  pair.memo.emplace_back(box, plans);
  return PlansRef(std::move(plans));
}

Status Dispatcher::PersistCache() {
  if (store_ == nullptr) return Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, pair] : contexts_) {
      pair->ctx.stack().PublishToStore();
    }
  }
  return store_->Save();
}

DispatcherStats Dispatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DispatcherStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.failed_requests = failed_requests_.load(std::memory_order_relaxed);
  out.discoveries = discoveries_.load(std::memory_order_relaxed);
  out.discoveries_recalled =
      discoveries_recalled_.load(std::memory_order_relaxed);
  out.contexts = contexts_.size();
  for (const auto& [key, pair] : contexts_) {
    const runtime::OracleCacheStats s = pair->ctx.stack().cache().stats();
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
