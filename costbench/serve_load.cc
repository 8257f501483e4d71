// serve-warm and serve-fresh: kThreads closed-loop clients with zero think
// time send a seeded request stream to one serve::Server over protocol v2
// (serve::CallV2 over InProcessTransport).
//
// The stream draws from the quick queries x 3 analysis kinds x loadgen's
// three delta sets under the shared-device layout. Set-up sends each of
// those 54 distinct requests once, so on serve-warm every timed probe is
// a cache hit. serve-fresh adds a seeded explicit v2 box to every request,
// so nearly every probe misses and inserts into the shared caches.
//
// After the timed phase every distinct timed request is replayed serially
// through serve::Dispatcher::Handle; each timed kOk body must equal its
// replay byte for byte.
//
// The traced run drives the same stream prefix, under the same client
// count, at three entry points (Dispatcher::HandleStreaming,
// Server::HandleStreaming, CallV2) and through a bench-side replica of the
// dispatcher's analysis built from public entry points with timing
// decorators, whose bodies must also match.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "blackbox/narrow_optimizer.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/discovery.h"
#include "core/worst_case.h"
#include "costbench/report.h"
#include "costbench/trace.h"
#include "exp/report.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "runtime/oracle_stack.h"
#include "runtime/resilience/resilient_oracle.h"
#include "runtime/sink/sink.h"
#include "runtime/thread_pool.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "storage/layout.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costbench {
namespace {

using costsense::Result;
using costsense::Status;
using costsense::serve::AnalysisKind;
using costsense::serve::AnalysisRequest;
using costsense::storage::LayoutPolicy;

constexpr LayoutPolicy kPolicy = LayoutPolicy::kSharedDevice;
/// loadgen's three delta sets.
const std::vector<std::vector<double>> kDeltaSets = {
    {100.0}, {2.0, 10.0, 100.0}, {10.0, 1000.0}};
constexpr AnalysisKind kKinds[] = {AnalysisKind::kDiscovery,
                                   AnalysisKind::kWorstCase,
                                   AnalysisKind::kGtcSeries};
/// Requests per unit of work for wall_s / cpu_s.
constexpr uint64_t kBatch = 32;
/// Stream prefix the response digest covers.
constexpr uint64_t kDigestPrefix = 32;

/// The quick discovery budget the figure binaries and loadgen use.
costsense::core::DiscoveryOptions QuickDiscovery() {
  costsense::core::DiscoveryOptions d;
  d.random_samples = 16;
  d.sampled_vertices = 48;
  d.bisection_depth = 3;
  d.completeness_rounds = 1;
  return d;
}

/// One (query, kind, delta set) combination of the request mix.
struct Combo {
  size_t query = 0;
  AnalysisKind kind = AnalysisKind::kDiscovery;
  size_t deltas = 0;
};

/// What the stream generator needs: the queries, their 54 combinations
/// and, for explicit boxes, each query's baseline costs under the shared
/// layout.
struct StreamSpec {
  uint64_t seed = 0;
  bool fresh = false;
  std::vector<uint16_t> queries;
  std::vector<Combo> combos;
  std::vector<costsense::core::CostVector> baselines;
};

StreamSpec MakeStreamSpec(uint64_t seed, bool fresh) {
  StreamSpec spec{seed, fresh, {}, {}, {}};
  const costsense::catalog::Catalog catalog =
      costsense::tpch::MakeTpchCatalog(100.0);
  for (int qn : costsense::exp::QuickQueryNumbers()) {
    spec.queries.push_back(static_cast<uint16_t>(qn));
    const costsense::query::Query q =
        costsense::tpch::MakeTpchQuery(catalog, qn);
    const costsense::storage::StorageLayout layout(
        kPolicy, catalog, costsense::query::ReferencedTables(q));
    spec.baselines.push_back(layout.BuildResourceSpace().BaselineCosts());
  }
  for (size_t q = 0; q < spec.queries.size(); ++q) {
    for (AnalysisKind kind : kKinds) {
      for (size_t d = 0; d < kDeltaSets.size(); ++d) {
        spec.combos.push_back({q, kind, d});
      }
    }
  }
  return spec;
}

AnalysisRequest BaseRequest() {
  AnalysisRequest r;
  r.version = costsense::serve::kProtocolVersionV2;
  r.policy = kPolicy;
  return r;
}

/// Request `index` of the seeded stream; a pure function of (spec, index).
/// Each block of 54 consecutive indices is a seeded permutation of all
/// combinations (a shuffled deck), so every run sees the same mix and
/// run-to-run spread comes from timing, not from a lopsided draw.
AnalysisRequest MakeRequest(const StreamSpec& spec, uint64_t index) {
  const costsense::Rng seeded(spec.seed);
  std::vector<size_t> deck(spec.combos.size());
  std::iota(deck.begin(), deck.end(), size_t{0});
  costsense::Rng deck_rng = seeded.Fork(2 * (index / deck.size()));
  deck_rng.Shuffle(deck);
  const Combo& combo = spec.combos[deck[index % deck.size()]];
  AnalysisRequest r = BaseRequest();
  r.query_number = spec.queries[combo.query];
  r.kind = combo.kind;
  r.deltas = kDeltaSets[combo.deltas];
  if (spec.fresh) {
    // A multiplicative band of width 2-10 around a log-uniform point
    // within 100x of the layout baseline.
    costsense::Rng rng = seeded.Fork(2 * index + 1);
    const costsense::core::CostVector& base = spec.baselines[combo.query];
    costsense::core::CostVector point(base.size());
    for (size_t j = 0; j < base.size(); ++j) {
      point[j] = base[j] * rng.LogUniform(0.01, 100.0);
    }
    r.box = costsense::core::Box::MultiplicativeBand(point,
                                                     rng.Uniform(2.0, 10.0));
  }
  return r;
}

/// The 54 distinct band requests the stream draws from.
std::vector<AnalysisRequest> DistinctRequests(const StreamSpec& spec) {
  std::vector<AnalysisRequest> out;
  for (const Combo& combo : spec.combos) {
    AnalysisRequest r = BaseRequest();
    r.query_number = spec.queries[combo.query];
    r.kind = combo.kind;
    r.deltas = kDeltaSets[combo.deltas];
    out.push_back(std::move(r));
  }
  return out;
}

/// Record sink that keeps the body and stamps the first and last Write.
class TimingSink final : public costsense::runtime::sink::Sink {
 public:
  [[nodiscard]] Status Write(std::string_view record) override {
    last_ns = NowNs();
    if (first_ns == 0) first_ns = last_ns;
    body.append(record);
    return Status::Ok();
  }
  [[nodiscard]] Status Flush() override { return Status::Ok(); }
  [[nodiscard]] Status Close() override { return Status::Ok(); }

  std::string body;
  int64_t first_ns = 0;
  int64_t last_ns = 0;
};

/// One protocol-v2 client: the client end of an in-process transport pair
/// whose server end a Session serves on its own thread.
class Client {
 public:
  explicit Client(costsense::serve::Server& server) {
    auto [client, server_end] =
        costsense::serve::InProcessTransport::CreatePair();
    transport_ = std::move(client);
    session_ = std::thread(
        [&server, end = std::unique_ptr<costsense::serve::FrameTransport>(
                      std::move(server_end))]() mutable {
          costsense::serve::Session session(server, std::move(end));
          const Status st = session.Run();
          if (!st.ok()) {
            std::fprintf(stderr, "costbench: session: %s\n",
                         st.ToString().c_str());
          }
        });
  }
  ~Client() {
    transport_->Close();
    session_.join();
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  costsense::serve::FrameTransport& transport() { return *transport_; }

 private:
  std::unique_ptr<costsense::serve::FrameTransport> transport_;
  std::thread session_;
};

costsense::serve::ServerOptions MakeServerOptions(
    costsense::runtime::ThreadPool& pool) {
  costsense::serve::ServerOptions options;
  options.max_inflight = kThreads;
  options.max_queued = 4 * kThreads;
  options.dispatcher.discovery = QuickDiscovery();
  options.dispatcher.pool = &pool;
  return options;
}

/// Builds a server and sends each distinct request once, over one v2
/// client. Returns null (and fails the report) if any warm-up fails.
std::unique_ptr<costsense::serve::Server> MakeWarmServer(
    const StreamSpec& spec, costsense::runtime::ThreadPool& pool,
    Report& report) {
  auto server =
      std::make_unique<costsense::serve::Server>(MakeServerOptions(pool));
  Client client(*server);
  for (const AnalysisRequest& r : DistinctRequests(spec)) {
    const Result<costsense::serve::AnalysisResponse> resp =
        costsense::serve::CallV2(client.transport(), r);
    if (!resp.ok() || !resp->ok()) {
      report.Fail("warm-up request failed: " +
                  (resp.ok() ? resp->body : resp.status().ToString()));
      return nullptr;
    }
  }
  return server;
}

// ---------------------------------------------------------------------------
// Bench-side replica of the dispatcher's analysis, for the traced run.
// ---------------------------------------------------------------------------

/// serve::Dispatcher's per-(query, layout) context, with an optimizer
/// timing decorator below the shared cache.
struct ReplicaContext {
  ReplicaContext(const costsense::catalog::Catalog& catalog,
                 costsense::query::Query q, Tracer& tracer, uint64_t id)
      : query(std::move(q)),
        layout(kPolicy, catalog, costsense::query::ReferencedTables(query)),
        space(layout.BuildResourceSpace()),
        optimizer(catalog, layout, space),
        narrow(optimizer, query, /*white_box=*/true),
        below(narrow, tracer, Layer::kOpt, id),
        stack(costsense::runtime::OracleStackBuilder().Build(below)),
        baseline(space.BaselineCosts()) {
    const costsense::core::OracleResult initial =
        stack.cache().Optimize(baseline);
    initial_plan_id = initial.plan_id;
    if (initial.usage.has_value()) initial_usage = *initial.usage;
  }

  costsense::query::Query query;
  costsense::storage::StorageLayout layout;
  costsense::storage::ResourceSpace space;
  costsense::opt::Optimizer optimizer;
  costsense::blackbox::NarrowOptimizer narrow;
  TimingOracle below;
  costsense::runtime::OracleStack stack;
  costsense::core::CostVector baseline;
  std::string initial_plan_id;
  costsense::core::UsageVector initial_usage;
};

class Replica {
 public:
  /// Optimizer spans carry their context's id, kept apart from request
  /// ids (stream indices).
  static constexpr uint64_t kContextIdBit = uint64_t{1} << 63;

  Replica(const StreamSpec& spec, costsense::runtime::ThreadPool& pool)
      : catalog_(costsense::tpch::MakeTpchCatalog(100.0)), pool_(pool) {
    for (uint16_t qn : spec.queries) {
      contexts_.emplace(
          qn, std::make_unique<ReplicaContext>(
                  catalog_, costsense::tpch::MakeTpchQuery(catalog_, qn),
                  tracer_, kContextIdBit | qn));
    }
  }

  Tracer& tracer() { return tracer_; }

  /// Dispatcher::Render over the replica context, with spans around the
  /// request, its lookups, discovery and each worst-case LP.
  Status Render(const AnalysisRequest& request, uint64_t id,
                costsense::runtime::sink::Sink& out) {
    ScopedSpan request_span(tracer_, Layer::kAnalysis, id);
    ReplicaContext& ctx = *contexts_.at(request.query_number);
    TimingOracle above(ctx.stack.cache(), tracer_, Layer::kCache, id);
    costsense::core::InfallibleOracleAdapter adapter(above);
    costsense::runtime::resilience::ResilientOracleOptions retry;
    retry.max_retries = 0;
    costsense::runtime::resilience::ResilientOracle resilient(adapter, retry);
    const double band =
        *std::max_element(request.deltas.begin(), request.deltas.end());
    const costsense::core::Box box =
        request.box.has_value()
            ? *request.box
            : costsense::core::Box::MultiplicativeBand(ctx.baseline, band);
    costsense::Rng rng(costsense::serve::DispatcherOptions{}.seed);
    costsense::core::DiscoveryOptions discovery = QuickDiscovery();
    discovery.pool = &pool_;
    Result<costsense::core::DiscoveryResult> d = Status::Internal("not run");
    {
      ScopedSpan discovery_span(tracer_, Layer::kDiscovery, id);
      d = costsense::core::DiscoverCandidatePlans(resilient, box, rng,
                                                  discovery);
    }
    if (!d.ok()) return d.status();
    if (resilient.stats().failures > 0) {
      return Status::Unavailable("replica probe failed");
    }
    std::vector<costsense::core::PlanUsage> plans;
    for (const costsense::core::DiscoveredPlan& dp : d->plans) {
      plans.push_back(dp.plan);
    }
    Status st = out.Write(costsense::StrFormat(
        "costsense-serve v%u %s\n"
        "query=%s policy=%s dims=%zu\n"
        "band_delta=%s\n"
        "initial_plan=%s\n"
        "plans=%zu complete=%d\n",
        costsense::serve::kProtocolVersion,
        costsense::serve::AnalysisKindName(request.kind),
        ctx.query.name.c_str(), costsense::storage::LayoutPolicyName(kPolicy),
        ctx.space.dims(), costsense::FormatDouble(band).c_str(),
        ctx.initial_plan_id.c_str(), plans.size(), d->complete ? 1 : 0));
    if (!st.ok()) return st;
    if (request.kind == AnalysisKind::kDiscovery) {
      for (size_t i = 0; i < d->plans.size() && st.ok(); ++i) {
        st = out.Write(costsense::StrFormat(
            "plan %zu: %s margin=%s\n", i, d->plans[i].plan.plan_id.c_str(),
            costsense::FormatDouble(d->plans[i].margin).c_str()));
      }
      return st;
    }
    const size_t count =
        request.kind == AnalysisKind::kWorstCase ? 1 : request.deltas.size();
    for (size_t i = 0; i < count && st.ok(); ++i) {
      const bool explicit_box = request.kind == AnalysisKind::kWorstCase &&
                                request.box.has_value();
      const costsense::core::Box delta_box =
          explicit_box ? *request.box
                       : costsense::core::Box::MultiplicativeBand(
                             ctx.baseline, request.deltas[i]);
      Result<costsense::core::WorstCaseResult> wc = Status::Internal("not run");
      {
        ScopedSpan lp_span(tracer_, Layer::kLp, id);
        wc = costsense::core::WorstCaseOverPlansByLp(ctx.initial_usage, plans,
                                                     delta_box, &pool_);
      }
      if (!wc.ok()) return wc.status();
      st = out.Write(costsense::StrFormat(
          "delta=%s gtc=%s rival=%s\n",
          costsense::FormatDouble(request.deltas[i]).c_str(),
          costsense::FormatDouble(wc->gtc).c_str(), wc->worst_rival.c_str()));
    }
    return st;
  }

 private:
  costsense::catalog::Catalog catalog_;
  costsense::runtime::ThreadPool& pool_;
  Tracer tracer_;
  std::map<uint16_t, std::unique_ptr<ReplicaContext>> contexts_;
};

// ---------------------------------------------------------------------------
// Closed-loop drive.
// ---------------------------------------------------------------------------

enum class Entry { kCallV2, kServer, kDispatcher, kReplica };

/// A timed request and the first kOk body seen for it.
struct Seen {
  AnalysisRequest request;
  std::string body;
};

/// What one drive observed. Latencies are client-side, per kOk response.
struct DriveResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  /// kOk bodies reporting discovery_complete=1.
  uint64_t complete = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  Histogram latency;
  /// Request start to first record, and first to last record (sink entry
  /// points only).
  Histogram first_record;
  Histogram stream;
  /// Keyed by the encoded request; every later kOk body for the same key
  /// was byte-compared against the stored one.
  std::map<std::string, Seen> bodies;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

bool BodyComplete(const std::string& body) {
  return body.find(" complete=1\n") != std::string::npos;
}

/// Runs kThreads closed-loop clients, each claiming the next stream index
/// until `deadline_ns` passes (when nonzero) or `limit` indices are
/// claimed (when nonzero).
DriveResult Drive(Entry entry, const StreamSpec& spec,
                  costsense::serve::Server* server, Replica* replica,
                  int64_t deadline_ns, uint64_t limit) {
  std::atomic<uint64_t> next{0};
  std::vector<DriveResult> per_client(kThreads);
  std::vector<std::unique_ptr<Client>> clients;
  if (entry == Entry::kCallV2) {
    for (size_t c = 0; c < kThreads; ++c) {
      clients.push_back(std::make_unique<Client>(*server));
    }
  }
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      DriveResult& mine = per_client[c];
      for (;;) {
        if (deadline_ns != 0 && NowNs() >= deadline_ns) break;
        const uint64_t index = next.fetch_add(1);
        if (limit != 0 && index >= limit) break;
        const AnalysisRequest request = MakeRequest(spec, index);
        ++mine.issued;
        TimingSink sink;
        std::string body;
        Status status;
        const int64_t t0 = NowNs();
        switch (entry) {
          case Entry::kCallV2: {
            Result<costsense::serve::AnalysisResponse> resp =
                costsense::serve::CallV2(clients[c]->transport(), request);
            if (!resp.ok()) {
              status = resp.status();
            } else if (!resp->ok()) {
              status = Status(resp->code, resp->body);
            } else {
              body = std::move(resp->body);
            }
            break;
          }
          case Entry::kServer:
            status = server->HandleStreaming(request, sink);
            break;
          case Entry::kDispatcher:
            status = server->dispatcher().HandleStreaming(request, sink);
            break;
          case Entry::kReplica:
            status = replica->Render(request, index, sink);
            break;
        }
        const int64_t t1 = NowNs();
        if (!status.ok()) {
          if (mine.errors++ == 0) {
            std::fprintf(stderr, "costbench: request %llu: %s\n",
                         static_cast<unsigned long long>(index),
                         status.ToString().c_str());
          }
          continue;
        }
        ++mine.ok;
        mine.latency.Add(t1 - t0);
        if (entry != Entry::kCallV2) {
          body = std::move(sink.body);
          if (sink.first_ns != 0) {
            mine.first_record.Add(sink.first_ns - t0);
            mine.stream.Add(sink.last_ns - sink.first_ns);
          }
        }
        if (BodyComplete(body)) ++mine.complete;
        std::string key = costsense::serve::EncodeRequest(request);
        const auto it = mine.bodies.find(key);
        if (it == mine.bodies.end()) {
          mine.bodies.emplace(std::move(key), Seen{request, std::move(body)});
        } else if (it->second.body != body) {
          ++mine.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  DriveResult out;
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  clients.clear();
  for (DriveResult& r : per_client) {
    out.issued += r.issued;
    out.ok += r.ok;
    out.complete += r.complete;
    out.errors += r.errors;
    out.mismatches += r.mismatches;
    out.latency.Merge(r.latency);
    out.first_record.Merge(r.first_record);
    out.stream.Merge(r.stream);
    for (auto& [key, seen] : r.bodies) {
      auto [it, inserted] = out.bodies.try_emplace(key, seen);
      if (!inserted && it->second.body != seen.body) ++out.mismatches;
    }
  }
  return out;
}

/// Replays every distinct timed request serially through
/// Dispatcher::Handle and byte-compares each drive's bodies with it.
/// Returns the number of mismatching or failed requests.
uint64_t Replay(costsense::serve::Dispatcher& dispatcher,
                const std::vector<const DriveResult*>& drives,
                std::map<std::string, std::string>& replayed, Report& report) {
  uint64_t bad = 0;
  for (const DriveResult* d : drives) {
    for (const auto& [key, seen] : d->bodies) {
      auto it = replayed.find(key);
      if (it == replayed.end()) {
        const costsense::serve::AnalysisResponse resp =
            dispatcher.Handle(seen.request);
        if (!resp.ok()) {
          ++bad;
          report.Fail("replay failed: " + resp.body);
          continue;
        }
        it = replayed.emplace(key, resp.body).first;
      }
      if (it->second != seen.body) {
        ++bad;
        report.Fail(costsense::StrFormat(
            "timed body for Q%u %s differs from its replay",
            seen.request.query_number,
            costsense::serve::AnalysisKindName(seen.request.kind)));
      }
    }
  }
  return bad;
}

/// Digests of the stream's first kDigestPrefix requests and of their
/// replayed responses: a seed fixes both.
void PrintDigests(const StreamSpec& spec,
                  costsense::serve::Dispatcher& dispatcher) {
  uint64_t request_digest = Fnv1a("");
  uint64_t response_digest = Fnv1a("");
  for (uint64_t i = 0; i < kDigestPrefix; ++i) {
    const AnalysisRequest r = MakeRequest(spec, i);
    request_digest =
        Fnv1a(costsense::serve::EncodeRequest(r), request_digest);
    response_digest = Fnv1a(dispatcher.Handle(r).body, response_digest);
  }
  std::fprintf(stderr,
               "costbench: seed=%llu request_digest=%016llx "
               "response_digest=%016llx\n",
               static_cast<unsigned long long>(spec.seed),
               static_cast<unsigned long long>(request_digest),
               static_cast<unsigned long long>(response_digest));
}

}  // namespace

Report RunServe(const Args& args, bool fresh) {
  Report report;
  costsense::runtime::ThreadPool pool(kThreads);
  const StreamSpec spec = MakeStreamSpec(args.seed, fresh);

  // Set-up, three times: a server warmed with every distinct request.
  std::vector<double> setup_s;
  std::unique_ptr<costsense::serve::Server> server;
  for (int i = 0; i < (args.trace ? 1 : 3); ++i) {
    if (server != nullptr) server->Shutdown();
    server.reset();
    const int64_t t0 = NowNs();
    server = MakeWarmServer(spec, pool, report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (server == nullptr) {
      report.attempted = report.failed = 1;
      return report;
    }
  }

  // The timed phase over CallV2, with stats sampled around it.
  const double timed_s = args.trace ? args.seconds / 4 : args.seconds;
  const costsense::serve::ServerStats stats_before = server->stats();
  const costsense::runtime::PoolStats pool_before = pool.stats();
  const DriveResult timed =
      Drive(Entry::kCallV2, spec, server.get(), nullptr,
            NowNs() + static_cast<int64_t>(timed_s * 1e9), 0);
  const costsense::serve::ServerStats stats_after = server->stats();
  const costsense::runtime::PoolStats pool_after = pool.stats();
  const uint64_t n = timed.issued;

  std::vector<const DriveResult*> drives = {&timed};
  // Traced run: the same stream prefix at the lower entry points, each on
  // a freshly warmed server, then through the traced replica.
  DriveResult server_rung;
  DriveResult dispatcher_rung;
  DriveResult replica_rung;
  TraceSummary trace;
  if (args.trace) {
    std::unique_ptr<costsense::serve::Server> s2 =
        MakeWarmServer(spec, pool, report);
    if (s2 != nullptr) {
      server_rung = Drive(Entry::kServer, spec, s2.get(), nullptr, 0, n);
      s2->Shutdown();
    }
    std::unique_ptr<costsense::serve::Server> s3 =
        MakeWarmServer(spec, pool, report);
    if (s3 != nullptr) {
      dispatcher_rung =
          Drive(Entry::kDispatcher, spec, s3.get(), nullptr, 0, n);
      s3->Shutdown();
    }
    Replica replica(spec, pool);
    for (const AnalysisRequest& r : DistinctRequests(spec)) {
      TimingSink sink;
      if (!replica.Render(r, 0, sink).ok()) report.Fail("replica warm-up");
    }
    (void)replica.tracer().Take();
    replica_rung = Drive(Entry::kReplica, spec, nullptr, &replica, 0, n);
    trace = Summarize(replica.tracer().Take());
    drives.push_back(&server_rung);
    drives.push_back(&dispatcher_rung);
    drives.push_back(&replica_rung);
  }

  std::map<std::string, std::string> replayed;
  for (const DriveResult* d : drives) {
    report.attempted += d->issued;
    report.failed += d->errors + d->mismatches;
    if (d->errors + d->mismatches > 0) {
      report.Fail(costsense::StrFormat(
          "%llu failed request(s), %llu body mismatch(es) within a drive",
          static_cast<unsigned long long>(d->errors),
          static_cast<unsigned long long>(d->mismatches)));
    }
  }
  report.failed += Replay(server->dispatcher(), drives, replayed, report);
  PrintDigests(spec, server->dispatcher());
  server->Shutdown();

  const uint64_t ok = timed.ok;
  size_t incomplete_keys = 0;
  for (const auto& [key, body] : replayed) {
    if (!BodyComplete(body)) ++incomplete_keys;
  }
  std::fprintf(stderr,
               "%s: %llu timed request(s), %zu distinct, ok=%llu\n",
               fresh ? "serve-fresh" : "serve-warm",
               static_cast<unsigned long long>(n), replayed.size(),
               static_cast<unsigned long long>(ok));
  if (ok == 0) {
    report.Fail("no request completed in the timed phase");
    return report;
  }

  const double batches = static_cast<double>(n) / kBatch;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("cpu_s", timed.cpu_s / batches, "s");
    report.Add("latency_p50_ms", timed.latency.PercentileMs(0.5), "ms");
    report.Add("complete_share",
               static_cast<double>(timed.complete) / static_cast<double>(ok),
               "1");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return report;
  }

  // Per-layer figures. Cache and optimizer counts are the real server's,
  // over the timed phase; layer times come from the traced replica. Both
  // are per request.
  const double per_req = 1.0 / static_cast<double>(n);
  const double replica_n = static_cast<double>(replica_rung.issued);
  const auto& cb = stats_before.dispatcher.cache;
  const auto& ca = stats_after.dispatcher.cache;
  const double hits = static_cast<double>(ca.hits - cb.hits);
  const double misses = static_cast<double>(ca.misses - cb.misses);
  const double new_entries = static_cast<double>(ca.entries - cb.entries);
  if (ca.evictions != 0) {
    report.Fail("oracle cache evicted entries; the workload must fit");
  }
  const double server_p50 = server_rung.latency.PercentileMs(0.5);

  report.Add("load.throughput_rps", static_cast<double>(ok) / timed.wall_s,
             "1/s");
  report.Add("load.latency_p90_ms", timed.latency.PercentileMs(0.9), "ms");
  report.Add("load.wall_s", timed.wall_s / batches, "s");
  report.Add("opt.calls", misses * per_req, "count");
  report.Add("opt.busy_ms", trace.opt_busy_ms / replica_n, "ms");
  report.Add("opt.us_per_call",
             trace.opt_calls == 0 ? 0.0
                                  : trace.opt_busy_ms * 1e3 /
                                        static_cast<double>(trace.opt_calls),
             "us");
  report.Add("opt.cpu_share", trace.opt_cpu_ms / (replica_rung.cpu_s * 1e3),
             "1");
  report.Add("cache.lookups", (hits + misses) * per_req, "count");
  report.Add("cache.hit_rate",
             hits + misses == 0 ? 0.0 : hits / (hits + misses), "1");
  report.Add("cache.dup_misses", misses - new_entries, "count");
  report.Add("cache.evictions", static_cast<double>(ca.evictions), "count");
  report.Add("cache.self_ms", trace.cache_self_ms / replica_n, "ms");
  report.Add("discovery.wall_ms", trace.discovery_wall_ms / replica_n, "ms");
  report.Add("discovery.self_ms", trace.discovery_self_ms / replica_n, "ms");
  size_t plans = 0;
  for (const auto& [key, body] : replayed) {
    const size_t at = body.find("\nplans=");
    if (at != std::string::npos) plans += std::stoul(body.substr(at + 7));
  }
  report.Add("discovery.probes_per_plan",
             static_cast<double>(trace.cache_lookups) / replica_n /
                 (static_cast<double>(plans) /
                  static_cast<double>(replayed.size())),
             "1");
  report.Add("lp.calls", static_cast<double>(trace.lp_calls) / replica_n,
             "count");
  report.Add("lp.busy_ms", trace.lp_busy_ms / replica_n, "ms");
  report.Add("pool.tasks",
             static_cast<double>(pool_after.tasks_run - pool_before.tasks_run) *
                 per_req,
             "count");
  report.Add("pool.queue_high_water",
             static_cast<double>(pool_after.queue_high_water), "count");
  report.Add("pool.effective_cores", timed.cpu_s / timed.wall_s, "1");
  report.Add("analyze.max_query_ms", trace.max_analysis_ms, "ms");
  report.Add("serve.dispatch_p50_ms",
             dispatcher_rung.latency.PercentileMs(0.5), "ms");
  report.Add("serve.first_record_p50_ms",
             server_rung.first_record.PercentileMs(0.5), "ms");
  report.Add("serve.stream_p50_ms", server_rung.stream.PercentileMs(0.5),
             "ms");
  report.Add("serve.server_p50_ms", server_p50, "ms");
  report.Add("admission.peak_queued",
             static_cast<double>(stats_after.admission.peak_queued), "count");
  report.Add("admission.rejected",
             static_cast<double>(stats_after.admission.rejected -
                                 stats_before.admission.rejected),
             "count");
  report.Add("protocol.us_per_request",
             (timed.latency.PercentileMs(0.5) - server_p50) * 1e3, "us");
  report.Add("trace.overhead", replica_rung.wall_s - dispatcher_rung.wall_s,
             "s");
  report.Add("incomplete_pairs", static_cast<double>(incomplete_keys),
             "count");
  report.Add("error_rate",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "1");
  return report;
}

}  // namespace costbench
