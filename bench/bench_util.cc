#include "bench/bench_util.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "engine/artifact.h"
#include "exp/report.h"
#include "runtime/cache_store.h"
#include "runtime/thread_pool.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::bench {

FigureBenchConfig MakeFigureBenchConfig(const engine::EngineConfig& config) {
  FigureBenchConfig bench{tpch::MakeTpchCatalog(100.0), {}, {}, config.quick};
  if (bench.quick) {
    for (int qn : exp::QuickQueryNumbers()) {
      bench.queries.push_back(tpch::MakeTpchQuery(bench.catalog, qn));
    }
    bench.options.deltas = {2, 10, 100, 1000};
    bench.options.discovery = exp::QuickDiscovery();
  } else {
    bench.queries = tpch::MakeTpchQueries(bench.catalog);
    bench.options.deltas = {2, 5, 10, 100, 1000, 10000};
  }
  return bench;
}

void EmitBenchJson(const engine::EngineConfig& config,
                   const std::string& bench_name,
                   const runtime::RuntimeMetrics& metrics,
                   const std::vector<std::pair<std::string, double>>& extra) {
  const std::string line = metrics.ToJsonLine(bench_name, extra);
  std::fputs(line.c_str(), stderr);
  if (!config.bench_json_path.empty()) {
    engine::AppendBenchJsonLine(config.bench_json_path, line, bench_name);
  }
}

void AddAnalysis(const exp::QueryAnalysis& analysis,
                 runtime::RuntimeMetrics& metrics) {
  metrics.cache_hits += analysis.cache_hits;
  metrics.cache_misses += analysis.cache_misses;
  const runtime::resilience::ResilienceStats& r = analysis.probes.resilience;
  metrics.probe_calls += r.calls;
  metrics.oracle_attempts += r.attempts;
  metrics.oracle_retries += r.retries;
  metrics.oracle_failures += r.failures;
  metrics.faults_injected += analysis.probes.faults.faults;
  metrics.degraded_points += analysis.degraded_points;
}

std::vector<exp::FigureSeries> RunWorstCaseFigure(
    engine::Engine& eng, const std::string& title,
    const std::string& bench_name, storage::LayoutPolicy policy) {
  FigureBenchConfig config = MakeFigureBenchConfig(eng.config());

  // Optional persisted oracle cache: load the snapshot (or cold-start on
  // corruption/mismatch, with typed telemetry), warm every per-query
  // stack, and save the merged warmth back on the way out. Warm or cold,
  // figure stdout is byte-identical — only the counters move.
  std::unique_ptr<runtime::CacheStore> store;
  if (!eng.config().cache_path.empty()) {
    runtime::CacheStoreOptions store_options;
    store_options.path = eng.config().cache_path;
    store_options.catalog_hash = config.catalog.Fingerprint();
    store = std::make_unique<runtime::CacheStore>(std::move(store_options));
    config.options.store = store.get();
  }

  const exp::FigureRunner runner(config.catalog, config.options);
  runtime::ThreadPool& pool = eng.pool();

  runtime::RuntimeMetrics metrics;
  metrics.threads = pool.num_threads();

  // Phase 1 — analysis: every query discovers its candidate plans
  // concurrently, and each discovery fans out its probes over the
  // same pool. Once every query is claimed, this thread runs those
  // nested probe iterations too instead of sleeping, so the last, largest
  // queries get every lane.
  runtime::WallTimer timer;
  const std::vector<Result<exp::QueryAnalysis>> analyses =
      runner.AnalyzeMany(config.queries, policy);
  metrics.phase_wall_ms.emplace_back("analyze", timer.ElapsedMs());

  // Phase 2 — series: pure geometry (per-rival fractional programs).
  timer.Restart();
  size_t oracle_calls = 0;
  size_t cache_imported = 0;
  std::vector<exp::FigureSeries> all;
  for (size_t i = 0; i < analyses.size(); ++i) {
    const query::Query& q = config.queries[i];
    const Result<exp::QueryAnalysis>& analysis = analyses[i];
    if (!analysis.ok()) {
      std::fprintf(stderr, "%s: analysis failed: %s\n", q.name.c_str(),
                   analysis.status().ToString().c_str());
      continue;
    }
    const Result<exp::FigureSeries> series = runner.GtcSeries(*analysis);
    if (!series.ok()) {
      std::fprintf(stderr, "%s: series failed: %s\n", q.name.c_str(),
                   series.status().ToString().c_str());
      continue;
    }
    std::fprintf(
        stderr,
        "%-4s dims=%-2zu plans=%-3zu calls=%-5zu hits=%-4zu complete=%d\n",
        q.name.c_str(), analysis->dims, analysis->candidate_plans.size(),
        analysis->oracle_calls, analysis->cache_hits,
        analysis->discovery_complete ? 1 : 0);
    oracle_calls += analysis->oracle_calls;
    cache_imported += analysis->cache_imported;
    AddAnalysis(*analysis, metrics);
    all.push_back(*series);
  }
  metrics.phase_wall_ms.emplace_back("series", timer.ElapsedMs());

  const runtime::PoolStats pool_stats = pool.stats();
  metrics.tasks_run = pool_stats.tasks_run;
  metrics.queue_high_water = pool_stats.queue_high_water;

  // Figure output through the configured sinks: the text sink keeps
  // stdout byte-identical for every thread count, the JSON sidecar (when
  // configured) captures the same series structured.
  std::unique_ptr<engine::ArtifactWriter> writer = eng.MakeArtifactWriter();
  writer->WriteFigure(title, all);
  std::vector<std::pair<std::string, double>> extra = {
      {"queries", static_cast<double>(all.size())},
      {"oracle_calls", static_cast<double>(oracle_calls)},
      {"quick", config.quick ? 1.0 : 0.0}};
  if (store != nullptr) {
    // Persist the merged warmth before reporting, so the telemetry line
    // reflects what actually reached disk.
    const Status saved = store->Save();
    if (!saved.ok()) {
      std::fprintf(stderr, "%s: cache store save: %s\n", bench_name.c_str(),
                   saved.ToString().c_str());
    }
    const runtime::CacheStoreTelemetry t = store->telemetry();
    std::fprintf(stderr,
                 "cache-store: loaded=%zu imported=%zu saved=%zu "
                 "rejected(crc=%zu truncated=%zu version=%zu catalog=%zu "
                 "quantization=%zu)\n",
                 t.loaded, cache_imported, t.saved, t.rejected_crc,
                 t.rejected_truncated, t.rejected_version, t.rejected_catalog,
                 t.rejected_quantization);
    extra.emplace_back("cache_imported", static_cast<double>(cache_imported));
    extra.emplace_back("store_loaded", static_cast<double>(t.loaded));
    extra.emplace_back("store_saved", static_cast<double>(t.saved));
    extra.emplace_back("store_rejected", t.rejected() ? 1.0 : 0.0);
  }
  writer->WriteRunMetrics(bench_name, metrics, extra);
  const Status finish = writer->Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "%s: artifact sink: %s\n", bench_name.c_str(),
                 finish.ToString().c_str());
  }
  return all;
}

int RunBenchMain(int argc, char** argv, const std::string& name,
                 const std::function<int(engine::Engine&, int, char**)>& body) {
  Result<engine::EngineConfig> config = engine::EngineConfig::FromEnv();
  if (!config.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 config.status().ToString().c_str());
    return 2;
  }
  std::vector<char*> passthrough;
  passthrough.push_back(argc > 0 ? argv[0] : nullptr);
  for (int i = 1; i < argc; ++i) {
    if (engine::EngineConfig::IsOverride(argv[i])) {
      const Status applied = config->ApplyOverride(argv[i]);
      if (!applied.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     applied.ToString().c_str());
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  Result<engine::Engine> eng = engine::Engine::Create(std::move(*config));
  if (!eng.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 eng.status().ToString().c_str());
    return 2;
  }

  runtime::WallTimer timer;
  const int rc =
      body(*eng, static_cast<int>(passthrough.size()), passthrough.data());

  // The uniform footprint line: every binary reports wall time, thread
  // count, mode and exit code machine-readably, even the ones with
  // bespoke stdout. Richer per-figure lines (cache/resilience counters)
  // are emitted separately by RunWorstCaseFigure and friends.
  runtime::RuntimeMetrics metrics;
  metrics.threads = runtime::GlobalThreadCount();
  metrics.phase_wall_ms.emplace_back("main", timer.ElapsedMs());
  EmitBenchJson(eng->config(), name, metrics,
                {{"quick", eng->config().quick ? 1.0 : 0.0},
                 {"exit_code", static_cast<double>(rc)}});
  return rc;
}

}  // namespace costsense::bench
