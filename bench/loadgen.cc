// loadgen: load generator for the costsense-serve analysis server.
// Drives concurrent client sessions through the in-process transport
// against one shared server — the same session/admission/dispatcher path
// a socket client exercises, minus the kernel socket — and reports exact
// p50/p99/p999 service latency into the bench JSON sidecar.
//
// Each of the --sessions clients sends its --requests requests back to
// back over CallV2 (the streamed frame protocol), one outstanding request
// at a time, so the latencies are service time under S-way concurrency.
//
// The workload is deterministic: each client forks its own Rng stream
// from the seed and draws its request mix (query, analysis kind, layout
// policy, delta set) from it, so two runs offer byte-identical request
// streams.
//
// Usage:
//   loadgen [quick=1 threads=N ...] [--sessions=S] [--requests=R]
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "engine/artifact.h"
#include "engine/config.h"
#include "exp/report.h"
#include "runtime/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/transport.h"

namespace costsense::bench {
namespace {

struct LoadgenOptions {
  size_t sessions = 3;
  size_t requests_per_session = 16;
  uint64_t seed = 0x10adULL;
};

/// One session's deterministic request stream.
std::vector<serve::AnalysisRequest> MakeWorkload(Rng& rng, size_t count,
                                                 bool quick) {
  // Quick mode sticks to the two cheapest highlighted queries so the
  // smoke test finishes in seconds; full mode draws from the quick-report
  // subset the figure binaries also use.
  const std::vector<uint16_t> queries =
      quick ? std::vector<uint16_t>{1, 6}
            : [] {
                std::vector<uint16_t> qs;
                for (int qn : exp::QuickQueryNumbers()) {
                  qs.push_back(static_cast<uint16_t>(qn));
                }
                return qs;
              }();
  const storage::LayoutPolicy policies[] = {
      storage::LayoutPolicy::kSharedDevice,
      storage::LayoutPolicy::kPerTableColocated,
  };
  const std::vector<std::vector<double>> delta_sets = {
      {100.0}, {2.0, 10.0, 100.0}, {10.0, 1000.0}};

  std::vector<serve::AnalysisRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::AnalysisRequest request;
    request.kind = static_cast<serve::AnalysisKind>(rng.Index(3));
    request.policy = policies[rng.Index(2)];
    request.query_number = queries[rng.Index(queries.size())];
    request.deltas = delta_sets[rng.Index(delta_sets.size())];
    out.push_back(std::move(request));
  }
  return out;
}

/// The three analysis kinds, indexable for the per-kind breakdown.
constexpr serve::AnalysisKind kKinds[] = {serve::AnalysisKind::kDiscovery,
                                          serve::AnalysisKind::kWorstCase,
                                          serve::AnalysisKind::kGtcSeries};
constexpr size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);

struct SessionResult {
  /// kOk request latencies in issue order, split by analysis kind —
  /// discovery, worst-case and GTC-series requests have very different
  /// cost profiles, and one blended percentile hides which one regressed.
  std::vector<double> latencies_ms[kNumKinds];
  size_t shed = 0;    // kUnavailable (admission overload)
  size_t errors = 0;  // any other non-OK response code
};

/// Nearest-rank percentile of an already-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

int LoadgenMain(engine::Engine& eng, int argc, char** argv) {
  LoadgenOptions load;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    size_t* target = flag == "--sessions"   ? &load.sessions
                     : flag == "--requests" ? &load.requests_per_session
                                            : nullptr;
    if (target == nullptr || eq == std::string_view::npos) {
      std::fprintf(stderr, "loadgen: unknown argument %s\n", argv[i]);
      return 2;
    }
    const Status parsed =
        engine::ParseSize(flag, arg.substr(eq + 1), 1, target);
    if (!parsed.ok()) {
      std::fprintf(stderr, "loadgen: %s\n", parsed.ToString().c_str());
      return 2;
    }
  }

  const engine::EngineConfig& config = eng.config();
  serve::ServerOptions options;
  options.max_inflight = config.serve_inflight;
  options.max_queued = config.serve_queue;
  options.dispatcher.default_deadline_ns =
      static_cast<uint64_t>(config.serve_deadline_ms) * 1'000'000ULL;
  options.dispatcher.pool = &eng.pool();
  if (config.quick) options.dispatcher.discovery = exp::QuickDiscovery();
  serve::Server server(options);

  std::vector<SessionResult> results(load.sessions);
  std::vector<std::thread> clients;
  runtime::WallTimer run_timer;
  for (size_t s = 0; s < load.sessions; ++s) {
    clients.emplace_back([&, s] {
      Rng rng = Rng(load.seed).Fork(s);
      const std::vector<serve::AnalysisRequest> workload =
          MakeWorkload(rng, load.requests_per_session, config.quick);
      SessionResult& result = results[s];

      auto [client, server_end] = serve::InProcessTransport::CreatePair();
      std::unique_ptr<serve::FrameTransport> transport = std::move(server_end);
      std::thread session_thread([&server, &transport] {
        serve::Session session(server, std::move(transport));
        const Status status = session.Run();
        if (!status.ok()) {
          std::fprintf(stderr, "loadgen: session: %s\n",
                       status.ToString().c_str());
        }
      });
      for (const serve::AnalysisRequest& request : workload) {
        runtime::WallTimer latency;
        const Result<serve::AnalysisResponse> response =
            serve::CallV2(*client, request);
        if (response.ok() && response->ok()) {
          result.latencies_ms[static_cast<size_t>(request.kind)].push_back(
              latency.ElapsedMs());
        } else if (response.ok() &&
                   response->code == StatusCode::kUnavailable) {
          ++result.shed;  // load shedding is the admission design working
        } else {
          ++result.errors;
        }
      }
      client->Close();
      session_thread.join();
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms = run_timer.ElapsedMs();
  server.Shutdown();

  std::vector<double> latencies;
  std::vector<double> by_kind[kNumKinds];
  size_t shed = 0;
  size_t errors = 0;
  for (const SessionResult& r : results) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      latencies.insert(latencies.end(), r.latencies_ms[k].begin(),
                       r.latencies_ms[k].end());
      by_kind[k].insert(by_kind[k].end(), r.latencies_ms[k].begin(),
                        r.latencies_ms[k].end());
    }
    shed += r.shed;
    errors += r.errors;
  }
  std::sort(latencies.begin(), latencies.end());
  for (std::vector<double>& v : by_kind) std::sort(v.begin(), v.end());

  const serve::ServerStats stats = server.stats();
  runtime::RuntimeMetrics metrics;
  metrics.threads = eng.pool().num_threads();
  metrics.phase_wall_ms.emplace_back("load", wall_ms);
  metrics.AddCacheStats(stats.dispatcher.cache);
  const runtime::PoolStats pool_stats = eng.pool().stats();
  metrics.tasks_run = pool_stats.tasks_run;
  metrics.queue_high_water = pool_stats.queue_high_water;

  // Metrics through the configured sinks (stderr render + the bench-JSON
  // line + the structured sidecar when configured), then an explicit
  // checkpoint Flush so the artifacts survive even if the process dies
  // before the summary.
  std::unique_ptr<engine::ArtifactWriter> writer = eng.MakeArtifactWriter();
  std::vector<std::pair<std::string, double>> extras = {
      {"sessions", static_cast<double>(load.sessions)},
      {"requests", static_cast<double>(latencies.size() + shed + errors)},
      {"shed", static_cast<double>(shed)},
      {"errors", static_cast<double>(errors)},
      {"admission_rejected", static_cast<double>(stats.admission.rejected)},
      {"peak_inflight", static_cast<double>(stats.admission.peak_inflight)},
      {"contexts", static_cast<double>(stats.dispatcher.contexts)},
      {"lat_p50_ms", Percentile(latencies, .5)},
      {"lat_p99_ms", Percentile(latencies, .99)},
      {"lat_p999_ms", Percentile(latencies, .999)}};
  // The per-kind breakdown (lat_discovery_p50_ms, ...): same nearest-rank
  // percentiles over each kind's own sample, plus its request count so a
  // tiny sample can't masquerade as a tight tail.
  for (size_t k = 0; k < kNumKinds; ++k) {
    const std::string name = serve::AnalysisKindName(kKinds[k]);
    extras.emplace_back("requests_" + name,
                        static_cast<double>(by_kind[k].size()));
    extras.emplace_back("lat_" + name + "_p50_ms", Percentile(by_kind[k], .5));
    extras.emplace_back("lat_" + name + "_p99_ms", Percentile(by_kind[k], .99));
  }
  writer->WriteRunMetrics("loadgen", metrics, extras);
  const Status checkpoint = writer->Flush();
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "loadgen: checkpoint flush: %s\n",
                 checkpoint.ToString().c_str());
  }

  std::fprintf(
      stderr,
      "loadgen: %zu client(s) x %zu request(s): ok=%zu shed=%zu errors=%zu "
      "rejected=%zu p50=%.3fms p99=%.3fms p999=%.3fms\n",
      load.sessions, load.requests_per_session,
      latencies.size(), shed, errors,
      static_cast<size_t>(stats.admission.rejected), Percentile(latencies, .5),
      Percentile(latencies, .99), Percentile(latencies, .999));

  const Status finished = writer->Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "loadgen: artifact sink: %s\n",
                 finished.ToString().c_str());
  }
  // Shed requests are the admission design working under deliberate
  // overload; any other non-OK analysis outcome in this workload is a bug.
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace costsense::bench

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(argc, argv, "loadgen",
                                        costsense::bench::LoadgenMain);
}
