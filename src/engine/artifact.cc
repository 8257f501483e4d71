#include "engine/artifact.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "exp/report.h"

namespace costsense::engine {
namespace {

/// JSON has no literal for non-finite numbers; encode them as strings so
/// the sidecar stays parseable when Theorem 2's bound is infinite.
std::string JsonNumber(double v) {
  if (std::isfinite(v)) return StrFormat("%.17g", v);
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  return "\"nan\"";
}

}  // namespace

void AppendBenchJsonLine(const std::string& path, std::string_view line,
                         const std::string& who) {
  // Each line is on disk as soon as it is produced; an unwritable path
  // never fails a run, but it never goes unnoticed either.
  runtime::sink::FileSink file(path, runtime::sink::FileSink::Mode::kAppend);
  Status st = file.Write(line);
  const Status closed = file.Close();
  if (st.ok()) st = closed;
  if (!st.ok()) {
    std::fprintf(stderr, "%s: cannot append the perf line to %s\n",
                 who.c_str(), path.c_str());
  }
}

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// TextRenderer
// ---------------------------------------------------------------------------

TextRenderer::TextRenderer(std::string bench_json_path)
    : bench_json_path_(std::move(bench_json_path)),
      out_(stdout),
      err_(stderr) {}

void TextRenderer::Note(Status st) {
  if (!st.ok() && deferred_.ok()) deferred_ = std::move(st);
}

void TextRenderer::WriteFigure(const std::string& title,
                               const std::vector<exp::FigureSeries>& series) {
  // Byte-for-byte the pre-engine driver output: table, blank line, CSV.
  Note(out_.Write(exp::RenderFigureTable(title, series)));
  Note(out_.Write("\nCSV:\n"));
  Note(out_.Write(exp::RenderFigureCsv(series)));
}

void TextRenderer::WriteRunMetrics(
    const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
    const std::vector<std::pair<std::string, double>>& extra) {
  Note(err_.Write(metrics.Render()));
  const std::string line = metrics.ToJsonLine(bench_name, extra);
  Note(err_.Write(line));
  if (!bench_json_path_.empty()) {
    AppendBenchJsonLine(bench_json_path_, line, bench_name);
  }
}

Status TextRenderer::Flush() {
  Note(out_.Flush());
  Note(err_.Flush());
  return deferred_;
}

Status TextRenderer::Finish() { return Flush(); }

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::WriteFigure(const std::string& title,
                             const std::vector<exp::FigureSeries>& series) {
  std::string line =
      "{\"artifact\":\"figure\",\"title\":\"" + EscapeJson(title) +
      "\",\"series\":[";
  for (size_t s = 0; s < series.size(); ++s) {
    const exp::FigureSeries& fs = series[s];
    if (s > 0) line += ",";
    line += "{\"query\":\"" + EscapeJson(fs.query_name) +
            "\",\"candidate_plans\":" + StrFormat("%zu", fs.num_candidate_plans) +
            ",\"constant_bound\":" + JsonNumber(fs.constant_bound) +
            ",\"complementary\":" +
            (fs.has_complementary_plans ? "true" : "false") + ",\"points\":[";
    for (size_t p = 0; p < fs.points.size(); ++p) {
      const exp::GtcPoint& pt = fs.points[p];
      if (p > 0) line += ",";
      line += "{\"delta\":" + JsonNumber(pt.delta) +
              ",\"gtc\":" + JsonNumber(pt.gtc) + ",\"worst_rival\":\"" +
              EscapeJson(pt.worst_rival) + "\"}";
    }
    line += "]}";
  }
  line += "]}\n";
  buffer_ += line;
}

void JsonWriter::WriteRunMetrics(
    const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
    const std::vector<std::pair<std::string, double>>& extra) {
  // Same schema as the perf line on stderr, tagged as a metrics artifact.
  std::string line = metrics.ToJsonLine(bench_name, extra);
  line.insert(1, "\"artifact\":\"metrics\",");
  buffer_ += line;
}

Status JsonWriter::Wrap(Status st) const {
  if (st.ok()) return st;
  return Status(st.code(), "artifact sidecar " + path_ + ": " + st.message());
}

Status JsonWriter::Flush() {
  if (buffer_.empty()) return Status::Ok();
  if (file_ == nullptr) {
    file_ = std::make_unique<runtime::sink::FileSink>(
        path_, runtime::sink::FileSink::Mode::kAppend);
  }
  Status st = file_->Write(buffer_);
  if (st.ok()) st = file_->Flush();
  if (!st.ok()) return Wrap(std::move(st));  // buffer kept for a retry
  buffer_.clear();
  return Status::Ok();
}

Status JsonWriter::Finish() {
  Status st = Flush();
  if (!st.ok()) return st;
  if (file_ == nullptr) return Status::Ok();  // nothing ever flushed
  st = file_->Close();
  // A later Flush reopens the file appending after these bytes, so batch
  // runs accumulate exactly as the historical fopen("a") did.
  file_.reset();
  return Wrap(std::move(st));
}

// ---------------------------------------------------------------------------
// MultiWriter
// ---------------------------------------------------------------------------

MultiWriter::MultiWriter(std::vector<std::unique_ptr<ArtifactWriter>> sinks)
    : sinks_(std::move(sinks)) {}

void MultiWriter::WriteFigure(const std::string& title,
                              const std::vector<exp::FigureSeries>& series) {
  for (auto& sink : sinks_) sink->WriteFigure(title, series);
}

void MultiWriter::WriteRunMetrics(
    const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
    const std::vector<std::pair<std::string, double>>& extra) {
  for (auto& sink : sinks_) sink->WriteRunMetrics(bench_name, metrics, extra);
}

Status MultiWriter::Flush() {
  Status first;
  for (auto& sink : sinks_) {
    Status st = sink->Flush();
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

Status MultiWriter::Finish() {
  Status first;
  for (auto& sink : sinks_) {
    Status st = sink->Finish();
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

std::unique_ptr<ArtifactWriter> MakeArtifactWriter(const EngineConfig& config) {
  auto text = std::make_unique<TextRenderer>(config.bench_json_path);
  if (config.artifact_json_path.empty()) return text;
  std::vector<std::unique_ptr<ArtifactWriter>> sinks;
  sinks.push_back(std::move(text));
  sinks.push_back(std::make_unique<JsonWriter>(config.artifact_json_path));
  return std::make_unique<MultiWriter>(std::move(sinks));
}

}  // namespace costsense::engine
