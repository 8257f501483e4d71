#ifndef COSTSENSE_ENGINE_ARTIFACT_H_
#define COSTSENSE_ENGINE_ARTIFACT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/config.h"
#include "exp/figure_runner.h"
#include "runtime/metrics.h"
#include "runtime/sink/stages.h"

namespace costsense::engine {

/// Where figure/table results go, decoupled from how they were computed.
///
/// Drivers emit two artifact kinds: a figure (title + per-query GTC
/// series) and a run's RuntimeMetrics (which carry the resilience
/// telemetry). Sinks decide the representation: TextRenderer reproduces
/// today's stdout byte-for-byte, JsonWriter captures the same data
/// structured.
class ArtifactWriter {
 public:
  virtual ~ArtifactWriter() = default;

  /// One worst-case figure: the table/CSV pair on the text sink, one
  /// structured series record on the JSON sink.
  virtual void WriteFigure(const std::string& title,
                           const std::vector<exp::FigureSeries>& series) = 0;

  /// Per-run counters and resilience telemetry. `extra` appends numeric
  /// fields to the machine-readable form.
  virtual void WriteRunMetrics(
      const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
      const std::vector<std::pair<std::string, double>>& extra = {}) = 0;

  /// Persists everything buffered so far without ending the run — the
  /// checkpoint entry point. A long-lived producer (the analysis server,
  /// the load generator) calls this at checkpoints and on shutdown so an
  /// aborted run keeps every artifact written up to the last Flush.
  /// Idempotent; a Flush with nothing buffered is a no-op.
  [[nodiscard]] virtual Status Flush() = 0;

  /// Flushes sink state (e.g. the JSON sidecar file). Idempotent.
  [[nodiscard]] virtual Status Finish() = 0;
};

/// The classic rendering: figures/tables to stdout (byte-identical to the
/// pre-engine drivers, proven by the golden harness), metrics to stderr as
/// the human-readable block plus one perf-JSON line, the latter also
/// appended to `bench_json_path` when non-empty.
///
/// Internally stdout/stderr bytes travel through borrowed StdioSinks; the
/// perf line is appended with AppendBenchJsonLine. The Write* entry points
/// are void, so a failed stdout/stderr write is remembered and surfaced as
/// the first error from Flush()/Finish().
class TextRenderer final : public ArtifactWriter {
 public:
  explicit TextRenderer(std::string bench_json_path = "");

  void WriteFigure(const std::string& title,
                   const std::vector<exp::FigureSeries>& series) override;
  void WriteRunMetrics(
      const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
      const std::vector<std::pair<std::string, double>>& extra) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Finish() override;

 private:
  /// Remembers the first failed write until Flush/Finish reports it.
  void Note(Status st);

  const std::string bench_json_path_;
  runtime::sink::StdioSink out_;
  runtime::sink::StdioSink err_;
  Status deferred_;
};

/// Structured sidecar: every artifact as one JSON object per line,
/// buffered and written to `path` on Finish (append mode, so batch runs
/// accumulate). Figure series keep full fidelity — per-point delta, gtc
/// and worst rival, plus the per-series Theorem 2 bound — making runs
/// machine-diffable without scraping stdout.
class JsonWriter final : public ArtifactWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  void WriteFigure(const std::string& title,
                   const std::vector<exp::FigureSeries>& series) override;
  void WriteRunMetrics(
      const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
      const std::vector<std::pair<std::string, double>>& extra) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Finish() override;

  /// The buffered JSON lines (tests inspect without touching the disk).
  const std::string& buffered() const { return buffer_; }

 private:
  /// Tags a file error with the sidecar path for the caller.
  [[nodiscard]] Status Wrap(Status st) const;

  const std::string path_;
  std::string buffer_;
  /// The append file, opened on the first Flush with data and released
  /// by Finish.
  std::unique_ptr<runtime::sink::FileSink> file_;
};

/// Fans every artifact out to several sinks in order.
class MultiWriter final : public ArtifactWriter {
 public:
  explicit MultiWriter(std::vector<std::unique_ptr<ArtifactWriter>> sinks);

  void WriteFigure(const std::string& title,
                   const std::vector<exp::FigureSeries>& series) override;
  void WriteRunMetrics(
      const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
      const std::vector<std::pair<std::string, double>>& extra) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Finish() override;

 private:
  std::vector<std::unique_ptr<ArtifactWriter>> sinks_;
};

/// The configured sink set: always a TextRenderer (stdout contract), plus
/// a JsonWriter sidecar when config.artifact_json_path is set.
std::unique_ptr<ArtifactWriter> MakeArtifactWriter(const EngineConfig& config);

/// Appends one perf-JSON `line` to `path`. Best effort: a failed append
/// prints one warning naming `who` and the path to stderr, and the run
/// goes on. The one writer behind every COSTSENSE_BENCH_JSON line.
void AppendBenchJsonLine(const std::string& path, std::string_view line,
                         const std::string& who);

/// Escapes `text` for embedding in a JSON string literal.
std::string EscapeJson(std::string_view text);

}  // namespace costsense::engine

#endif  // COSTSENSE_ENGINE_ARTIFACT_H_
