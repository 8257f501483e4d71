#ifndef COSTSENSE_BENCH_BENCH_UTIL_H_
#define COSTSENSE_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "exp/figure_runner.h"
#include "query/query.h"
#include "runtime/metrics.h"
#include "storage/layout.h"

namespace costsense::bench {

/// Shared setup for the figure/table reproduction binaries: the SF-100
/// TPC-H catalog (the paper's database), the query list (all 22, or the
/// highlighted subset when the engine config says quick), and
/// FigureRunner options scaled to the mode.
struct FigureBenchConfig {
  catalog::Catalog catalog;
  std::vector<query::Query> queries;
  exp::FigureRunner::Options options;
  bool quick = false;
};

FigureBenchConfig MakeFigureBenchConfig(const engine::EngineConfig& config);

/// Emits one machine-readable JSON line for a bench run: always to
/// stderr, and appended to config.bench_json_path when non-empty (e.g.
/// BENCH_fig6.json), so successive runs can track the perf trajectory. An
/// append that fails prints one warning naming the path; the run goes on.
/// `extra` adds numeric fields.
void EmitBenchJson(
    const engine::EngineConfig& config, const std::string& bench_name,
    const runtime::RuntimeMetrics& metrics,
    const std::vector<std::pair<std::string, double>>& extra = {});

/// Runs one full worst-case figure (paper Figures 5/6/7 depending on
/// `policy`): per-query candidate-plan discovery and the GTC-vs-delta
/// curve, fanned out over the process-global thread pool (sized by the
/// engine config; 1 recovers the serial path, with byte-identical
/// stdout). Output goes through the engine's artifact sinks: table and
/// CSV on stdout, progress/metrics/perf-JSON on stderr, plus the
/// structured JSON sidecar when configured. Returns the computed series
/// for further use.
///
std::vector<exp::FigureSeries> RunWorstCaseFigure(
    engine::Engine& eng, const std::string& title,
    const std::string& bench_name, storage::LayoutPolicy policy);

/// Adds one analysis's cache and probe-chain counters to `metrics`.
void AddAnalysis(const exp::QueryAnalysis& analysis,
                 runtime::RuntimeMetrics& metrics);

/// The one main() behind every bench binary. Reads the engine config from
/// the environment, applies any key=value overrides from argv (overrides
/// win; see EngineConfig::ApplyOverride), creates the Engine (sizing the
/// global pool) and runs `body` with the
/// remaining pass-through arguments (argv[0] plus everything that was not
/// a recognized override — google-benchmark flags flow through
/// untouched). A malformed config or override prints the typed error to
/// stderr and exits 2 without running the bench.
///
/// After the body returns, one uniform perf-JSON line is emitted (stderr
/// + config.bench_json_path) carrying the total wall time, thread count,
/// quick flag, and the body's exit code — so every binary, including the
/// ones with bespoke output, reports a machine-readable footprint.
int RunBenchMain(int argc, char** argv, const std::string& name,
                 const std::function<int(engine::Engine&, int, char**)>& body);

}  // namespace costsense::bench

#endif  // COSTSENSE_BENCH_BENCH_UTIL_H_
