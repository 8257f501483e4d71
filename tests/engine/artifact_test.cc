// Tests of the artifact sinks. The TextRenderer's stdout contract is
// proven byte-exact by the golden harness (ctest -L golden); here we pin
// the structured JSON sidecar, escaping, the Finish() file protocol, the
// perf-line append, and the config-driven sink selection.
#include "engine/artifact.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace costsense::engine {
namespace {

exp::FigureSeries SampleSeries() {
  exp::FigureSeries s;
  s.query_name = "Q19";
  s.num_candidate_plans = 4;
  s.constant_bound = 3.5;
  s.has_complementary_plans = true;
  s.points = {{2, 1.0, "p0"}, {1000, 2.5, "p\"quoted\""}};
  return s;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(EscapeJsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(EscapeJson("plain"), "plain");
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJson("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(EscapeJson(std::string("a\x01""b")), "a\\u0001b");
}

TEST(JsonWriterTest, FigureSeriesKeepFullFidelity) {
  JsonWriter writer("/nonexistent/never-touched.jsonl");
  writer.WriteFigure("Figure 6", {SampleSeries()});
  const std::string& line = writer.buffered();
  EXPECT_NE(line.find("\"artifact\":\"figure\""), std::string::npos);
  EXPECT_NE(line.find("\"title\":\"Figure 6\""), std::string::npos);
  EXPECT_NE(line.find("\"query\":\"Q19\""), std::string::npos);
  EXPECT_NE(line.find("\"candidate_plans\":4"), std::string::npos);
  EXPECT_NE(line.find("\"constant_bound\":3.5"), std::string::npos);
  EXPECT_NE(line.find("\"complementary\":true"), std::string::npos);
  EXPECT_NE(line.find("\"delta\":1000"), std::string::npos);
  EXPECT_NE(line.find("\"gtc\":2.5"), std::string::npos);
  EXPECT_NE(line.find("\"worst_rival\":\"p\\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_EQ(line.back(), '\n');  // one object per line
}

TEST(JsonWriterTest, NonFiniteBoundsStayParseable) {
  exp::FigureSeries s = SampleSeries();
  s.constant_bound = std::numeric_limits<double>::infinity();
  JsonWriter writer("/nonexistent/never-touched.jsonl");
  writer.WriteFigure("t", {s});
  // JSON has no literal Infinity; the sidecar encodes it as a string.
  EXPECT_NE(writer.buffered().find("\"constant_bound\":\"inf\""),
            std::string::npos);
}

TEST(JsonWriterTest, MetricsAreTagged) {
  JsonWriter writer("/nonexistent/never-touched.jsonl");
  runtime::RuntimeMetrics metrics;
  metrics.threads = 3;
  writer.WriteRunMetrics("fig6", metrics, {{"queries", 6.0}});
  const std::string& buffered = writer.buffered();
  EXPECT_NE(buffered.find("\"artifact\":\"metrics\""), std::string::npos);
  EXPECT_NE(buffered.find("fig6"), std::string::npos);
}

TEST(JsonWriterTest, FinishAppendsAndClearsTheBuffer) {
  const std::string path = testing::TempDir() + "artifact_test_sidecar.jsonl";
  std::remove(path.c_str());

  JsonWriter writer(path);
  writer.WriteFigure("first", {SampleSeries()});
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(writer.buffered().empty());
  // Idempotent: a second Finish with nothing buffered writes nothing.
  ASSERT_TRUE(writer.Finish().ok());
  const std::string once = ReadFile(path);
  EXPECT_NE(once.find("first"), std::string::npos);

  // Append mode: a later run accumulates instead of truncating.
  JsonWriter second(path);
  second.WriteFigure("second", {SampleSeries()});
  ASSERT_TRUE(second.Finish().ok());
  const std::string both = ReadFile(path);
  EXPECT_NE(both.find("first"), std::string::npos);
  EXPECT_NE(both.find("second"), std::string::npos);

  std::remove(path.c_str());
}

TEST(JsonWriterTest, UnwritablePathIsATypedError) {
  JsonWriter writer("/nonexistent-dir/sidecar.jsonl");
  writer.WriteFigure("x", {SampleSeries()});
  const Status st = writer.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sidecar"), std::string::npos);
}

TEST(MakeArtifactWriterTest, SidecarOnlyWhenConfigured) {
  const std::string path = testing::TempDir() + "artifact_test_config.jsonl";
  std::remove(path.c_str());

  // Default config: text only; Finish touches no file.
  EngineConfig plain;
  ASSERT_TRUE(MakeArtifactWriter(plain)->Finish().ok());
  EXPECT_TRUE(ReadFile(path).empty());

  // With artifact_json_path set, the same metrics land in the sidecar
  // too (the stderr side is the TextRenderer's).
  EngineConfig with_sidecar;
  with_sidecar.artifact_json_path = path;
  auto writer = MakeArtifactWriter(with_sidecar);
  writer->WriteRunMetrics("census_run", runtime::RuntimeMetrics{}, {});
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_NE(ReadFile(path).find("census_run"), std::string::npos);

  std::remove(path.c_str());
}

TEST(AppendBenchJsonLineTest, SuccessiveLinesAccumulate) {
  const std::string path = testing::TempDir() + "artifact_test_perf.json";
  std::remove(path.c_str());
  AppendBenchJsonLine(path, "{\"a\":1}\n", "artifact_test");
  AppendBenchJsonLine(path, "{\"b\":2}\n", "artifact_test");
  EXPECT_EQ(ReadFile(path), "{\"a\":1}\n{\"b\":2}\n");
  std::remove(path.c_str());
}

TEST(TextRendererTest, UnwritablePerfLinePathWarns) {
  // An unwritable path never fails the run, but it is never silent: one
  // warning naming the bench and the path.
  TextRenderer renderer("/nonexistent-dir/perf.json");
  testing::internal::CaptureStderr();
  renderer.WriteRunMetrics("fig5_shared_device", runtime::RuntimeMetrics{},
                           {});
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_NE(stderr_text.find("fig5_shared_device: cannot append the perf "
                             "line to /nonexistent-dir/perf.json"),
            std::string::npos)
      << stderr_text;
  EXPECT_TRUE(renderer.Finish().ok());
}

}  // namespace
}  // namespace costsense::engine
