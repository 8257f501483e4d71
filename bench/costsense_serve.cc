// costsense-serve: the long-lived multi-tenant sensitivity-analysis
// server. Listens on a Unix-domain socket (COSTSENSE_SERVE_SOCKET /
// serve_socket=...), runs each accepted session on its own thread, and
// multiplexes requests onto the process-global thread pool behind bounded
// admission (serve_inflight / serve_queue) — saturated load comes back as
// typed kUnavailable responses, never hangs. All sessions share the warm
// per-(query, policy) oracle caches.
//
// Usage:
//   costsense_serve [quick=1 threads=N serve_socket=PATH serve_inflight=K
//                    serve_queue=Q serve_deadline_ms=MS cache_path=FILE
//                    serve_stats_interval_ms=MS serve_idle_timeout_ms=MS
//                    serve_drain_timeout_ms=MS ...]
//                   [--max-sessions=N] [--drain-timeout-ms=MS]
//
// --max-sessions=N exits after N sessions finish (benches and tests use
// this for a drivable shutdown; 0 = serve until the socket is torn down).
// --drain-timeout-ms=MS bounds shutdown against a wedged session (same
// knob as serve_drain_timeout_ms; the flag wins). With cache_path set the
// server loads the oracle-cache snapshot at startup (cold on corruption or
// catalog mismatch, with typed telemetry) and persists it on clean
// shutdown; with serve_stats_interval_ms set it writes periodic stats
// snapshots through the artifact sinks while serving, not only at
// shutdown. With serve_idle_timeout_ms set it reaps idle sessions, on the
// stats cadence when there is one and once per timeout otherwise.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "engine/artifact.h"
#include "engine/config.h"
#include "exp/report.h"
#include "runtime/metrics.h"
#include "serve/server.h"
#include "serve/snapshotter.h"
#include "serve/transport.h"

namespace costsense::bench {
namespace {

int ServeMain(engine::Engine& eng, int argc, char** argv) {
  size_t max_sessions = 0;
  size_t drain_timeout_ms_flag = 0;
  bool drain_flag_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    size_t* target = flag == "--max-sessions"       ? &max_sessions
                     : flag == "--drain-timeout-ms" ? &drain_timeout_ms_flag
                                                    : nullptr;
    if (target == nullptr || eq == std::string_view::npos) {
      std::fprintf(stderr, "costsense-serve: unknown argument %s\n", argv[i]);
      return 2;
    }
    // Min 0: 0 keeps its meaning (serve until torn down / no drain bound).
    const Status parsed =
        engine::ParseSize(flag, arg.substr(eq + 1), 0, target);
    if (!parsed.ok()) {
      std::fprintf(stderr, "costsense-serve: %s\n", parsed.ToString().c_str());
      return 2;
    }
    if (target == &drain_timeout_ms_flag) drain_flag_set = true;
  }

  const engine::EngineConfig& config = eng.config();
  serve::ServerOptions options;
  options.max_inflight = config.serve_inflight;
  options.max_queued = config.serve_queue;
  options.dispatcher.default_deadline_ns =
      static_cast<uint64_t>(config.serve_deadline_ms) * 1'000'000ULL;
  options.dispatcher.pool = &eng.pool();
  options.dispatcher.cache_path = config.cache_path;
  const size_t drain_timeout_ms =
      drain_flag_set ? drain_timeout_ms_flag : config.serve_drain_timeout_ms;
  options.drain_timeout_ns =
      static_cast<uint64_t>(drain_timeout_ms) * 1'000'000ULL;
  options.idle_timeout_ns =
      static_cast<uint64_t>(config.serve_idle_timeout_ms) * 1'000'000ULL;
  if (config.quick) options.dispatcher.discovery = exp::QuickDiscovery();
  serve::Server server(options);

  Result<std::unique_ptr<serve::SocketListener>> listener =
      serve::SocketListener::Bind(config.serve_socket);
  if (!listener.ok()) {
    std::fprintf(stderr, "costsense-serve: %s\n",
                 listener.status().ToString().c_str());
    return 2;
  }
  std::fprintf(stderr,
               "costsense-serve: listening on %s (inflight=%zu queue=%zu "
               "deadline_ms=%zu drain_ms=%zu idle_ms=%zu threads=%zu)\n",
               config.serve_socket.c_str(), options.max_inflight,
               options.max_queued, config.serve_deadline_ms, drain_timeout_ms,
               config.serve_idle_timeout_ms, eng.pool().num_threads());

  // The periodic in-flight stats snapshotter and idle watchdog driver;
  // inert when both the interval and the idle timeout are 0. It shares
  // the artifact writer with the shutdown record below, so it is stopped
  // before that write.
  std::unique_ptr<engine::ArtifactWriter> writer = eng.MakeArtifactWriter();
  serve::SnapshotterOptions snapshot_options;
  snapshot_options.interval_ns =
      static_cast<uint64_t>(config.serve_stats_interval_ms) * 1'000'000ULL;
  serve::StatsSnapshotter snapshotter(server, *writer, snapshot_options);
  snapshotter.Start();

  runtime::WallTimer timer;
  const Status served = server.ServeBlocking(**listener, max_sessions);
  if (!served.ok()) {
    std::fprintf(stderr, "costsense-serve: %s\n", served.ToString().c_str());
  }
  snapshotter.Stop();
  server.Shutdown();
  (*listener)->Close();

  // Shutdown telemetry through the configured sinks, with an explicit
  // checkpoint Flush so the sidecar is on disk before teardown.
  const serve::ServerStats stats = server.stats();
  if (stats.dispatcher.persistent) {
    const runtime::CacheStoreTelemetry& st = stats.dispatcher.store;
    std::fprintf(stderr,
                 "costsense-serve: cache-store loaded=%zu saved=%zu "
                 "rejected(crc=%zu truncated=%zu version=%zu catalog=%zu "
                 "quantization=%zu)%s\n",
                 st.loaded, st.saved, st.rejected_crc, st.rejected_truncated,
                 st.rejected_version, st.rejected_catalog,
                 st.rejected_quantization,
                 stats.shutdown.persist_failed ? " persist-FAILED" : "");
  }
  runtime::RuntimeMetrics metrics;
  metrics.threads = eng.pool().num_threads();
  metrics.phase_wall_ms.emplace_back("serve", timer.ElapsedMs());
  metrics.AddCacheStats(stats.dispatcher.cache);
  writer->WriteRunMetrics(
      "costsense_serve", metrics,
      {{"sessions", static_cast<double>(stats.sessions)},
       {"requests", static_cast<double>(stats.dispatcher.requests)},
       {"failed_requests",
        static_cast<double>(stats.dispatcher.failed_requests)},
       {"admission_rejected", static_cast<double>(stats.admission.rejected)},
       {"peak_inflight", static_cast<double>(stats.admission.peak_inflight)},
       {"peak_queued", static_cast<double>(stats.admission.peak_queued)},
       {"contexts", static_cast<double>(stats.dispatcher.contexts)},
       {"stats_snapshots", static_cast<double>(snapshotter.ticks())},
       {"idle_reaped", static_cast<double>(stats.idle_reaped)},
       {"forced_sessions",
        static_cast<double>(stats.shutdown.forced_sessions)},
       {"drain_wait_ms",
        static_cast<double>(stats.shutdown.drain_wait_ns) / 1e6},
       {"store_loaded", static_cast<double>(stats.dispatcher.store.loaded)},
       {"store_saved", static_cast<double>(stats.dispatcher.store.saved)},
       {"store_rejected",
        stats.dispatcher.store.rejected() ? 1.0 : 0.0}});
  const Status checkpoint = writer->Flush();
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "costsense-serve: checkpoint flush: %s\n",
                 checkpoint.ToString().c_str());
  }
  const Status finished = writer->Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "costsense-serve: artifact sink: %s\n",
                 finished.ToString().c_str());
  }
  return served.ok() ? 0 : 1;
}

}  // namespace
}  // namespace costsense::bench

int main(int argc, char** argv) {
  return costsense::bench::RunBenchMain(argc, argv, "costsense_serve",
                                        costsense::bench::ServeMain);
}
