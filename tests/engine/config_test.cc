// Tests of the typed run configuration. EngineConfig::FromEnv is the one
// sanctioned environment reader (lint rule R5), so everything here drives
// the injectable lookup overload — no setenv, no process-global state.
#include "engine/config.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace costsense::engine {
namespace {

/// Env lookup backed by a map; absent keys read as unset.
EngineConfig::EnvLookup MapLookup(
    const std::map<std::string, std::string>& env) {
  return [&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  };
}

TEST(EngineConfigTest, EmptyEnvironmentYieldsDefaults) {
  const std::map<std::string, std::string> env;
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 0u);  // 0 = hardware concurrency
  EXPECT_FALSE(config->quick);
  EXPECT_TRUE(config->bench_json_path.empty());
  EXPECT_TRUE(config->artifact_json_path.empty());
  EXPECT_EQ(config->serve_inflight, 4u);
  EXPECT_EQ(config->serve_queue, 16u);
}

TEST(EngineConfigTest, ParsesEveryKnobFromEnv) {
  const std::map<std::string, std::string> env = {
      {"COSTSENSE_THREADS", "3"},
      {"COSTSENSE_QUICK", "1"},
      {"COSTSENSE_BENCH_JSON", "/tmp/bench.jsonl"},
      {"COSTSENSE_ARTIFACT_JSON", "/tmp/artifacts.jsonl"},
      {"COSTSENSE_SERVE_INFLIGHT", "8"},
      {"COSTSENSE_SERVE_QUEUE", "0"},
  };
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 3u);
  EXPECT_TRUE(config->quick);
  EXPECT_EQ(config->bench_json_path, "/tmp/bench.jsonl");
  EXPECT_EQ(config->artifact_json_path, "/tmp/artifacts.jsonl");
  EXPECT_EQ(config->serve_inflight, 8u);
  EXPECT_EQ(config->serve_queue, 0u);
}

TEST(EngineConfigTest, QuickKeepsItsDocumentedEnvSemantics) {
  // Any set, non-empty value other than "0" turns quick mode on; "" and
  // "0" mean off. Never a parse error.
  for (const auto& [value, expected] :
       std::map<std::string, bool>{
           {"", false}, {"0", false}, {"1", true}, {"yes", true}}) {
    const std::map<std::string, std::string> env = {
        {"COSTSENSE_QUICK", value}};
    const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
    ASSERT_TRUE(config.ok()) << "COSTSENSE_QUICK=" << value;
    EXPECT_EQ(config->quick, expected) << "COSTSENSE_QUICK=" << value;
  }
}

TEST(EngineConfigTest, MalformedValuesAreTypedErrorsNamingTheVariable) {
  const std::map<std::string, std::string> bad = {
      {"COSTSENSE_THREADS", "banana"},
      {"COSTSENSE_SERVE_DEADLINE_MS", "soon"},
      {"COSTSENSE_SERVE_IDLE_TIMEOUT_MS", "-2"},
      // Digits only: a blank-prefixed sign must not wrap to a huge count,
      // and a count past the integer range must not saturate silently.
      {"COSTSENSE_SERVE_QUEUE", " -5"},
      {"COSTSENSE_SERVE_INFLIGHT", "99999999999999999999999"},
  };
  for (const auto& [name, value] : bad) {
    const std::map<std::string, std::string> env = {{name, value}};
    const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
    ASSERT_FALSE(config.ok()) << name << "=" << value;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
    // The error must name the offending variable and echo the bad text, so
    // a refused bench run is diagnosable from the one-line message.
    EXPECT_NE(config.status().message().find(name), std::string::npos)
        << config.status().ToString();
    EXPECT_NE(config.status().message().find(value), std::string::npos)
        << config.status().ToString();
  }
}

TEST(EngineConfigTest, RetiredKernelKnobIsRefused) {
  // The vertex-sweep kernel choice is gone. A set variable is refused by
  // name, whatever its value, instead of being silently ignored.
  const std::map<std::string, std::string> env = {
      {"COSTSENSE_KERNEL", "scalar"}};
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(config.status().message().find("COSTSENSE_KERNEL"),
            std::string::npos)
      << config.status().ToString();
}

TEST(EngineConfigTest, RetiredArtifactChainKnobIsRefused) {
  // The sidecar chains are gone; a script expecting a compressed sidecar
  // must fail at startup, not quietly get plain JSON lines.
  const std::map<std::string, std::string> env = {
      {"COSTSENSE_ARTIFACT_CHAIN", "compressed"}};
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(config.status().message().find("COSTSENSE_ARTIFACT_CHAIN"),
            std::string::npos)
      << config.status().ToString();
}

TEST(EngineConfigTest, RetiredFaultKnobsAreRefused) {
  // No binary read the fault rate, and the retry budget changed no
  // output. A set variable is refused by name, whatever its value.
  for (const char* name : {"COSTSENSE_FAULT_RATE", "COSTSENSE_MAX_RETRIES"}) {
    const std::map<std::string, std::string> env = {{name, "0"}};
    const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
    ASSERT_FALSE(config.ok()) << name;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(config.status().message().find(name), std::string::npos)
        << config.status().ToString();
  }
}

TEST(EngineConfigTest, RetiredCacheSizingKnobsAreRefused) {
  // Nothing set the oracle-cache sizing; every cache keeps the default.
  // A stale script that still sets it fails at startup, naming the
  // variable, whatever its value — even one the old parser accepted.
  for (const char* name :
       {"COSTSENSE_CACHE_ENTRIES", "COSTSENSE_CACHE_SHARDS"}) {
    const std::map<std::string, std::string> env = {{name, "1024"}};
    const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
    ASSERT_FALSE(config.ok()) << name;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(config.status().message().find(name), std::string::npos)
        << config.status().ToString();
    EXPECT_NE(config.status().message().find("no longer supported"),
              std::string::npos)
        << config.status().ToString();
  }
}

TEST(EngineConfigTest, RetiredOverrideKeysAreUnknown) {
  EngineConfig config;
  for (const char* assignment :
       {"kernel=scalar", "artifact_chain=plain", "fault_rate=0.25",
        "max_retries=7", "cache_entries=1024", "cache_shards=4"}) {
    const Status st = config.ApplyOverride(assignment);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << assignment;
    EXPECT_NE(st.message().find("unknown engine config key"),
              std::string::npos)
        << st.ToString();
    EXPECT_FALSE(EngineConfig::IsOverride(assignment)) << assignment;
  }
}

TEST(EngineConfigTest, OverridesWinOverEnvironment) {
  const std::map<std::string, std::string> env = {
      {"COSTSENSE_THREADS", "2"}, {"COSTSENSE_QUICK", "0"}};
  Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->ApplyOverride("threads=5").ok());
  EXPECT_TRUE(config->ApplyOverride("quick=1").ok());
  EXPECT_EQ(config->threads, 5u);
  EXPECT_TRUE(config->quick);
}

TEST(EngineConfigTest, OverrideErrorsAreTyped) {
  EngineConfig config;
  const Status unknown = config.ApplyOverride("bogus=1");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("bogus"), std::string::npos);

  const Status no_eq = config.ApplyOverride("threads");
  EXPECT_EQ(no_eq.code(), StatusCode::kInvalidArgument);

  const Status bad_value = config.ApplyOverride("threads=lots");
  EXPECT_EQ(bad_value.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_value.message().find("threads"), std::string::npos);
}

TEST(EngineConfigTest, IsOverrideRecognizesOnlyKnobKeys) {
  // Every documented knob key is recognized...
  for (const auto& [key, value] : EngineConfig().KnobTable()) {
    EXPECT_TRUE(EngineConfig::IsOverride(key + "=" + value)) << key;
  }
  // ...and everything else passes through to the wrapped tool untouched
  // (google-benchmark flags, bare words, unknown keys).
  EXPECT_FALSE(EngineConfig::IsOverride("--benchmark_filter=BM_Sweep"));
  EXPECT_FALSE(EngineConfig::IsOverride("threads"));
  EXPECT_FALSE(EngineConfig::IsOverride("bogus=1"));
}

void ExpectSameConfig(const EngineConfig& a, const EngineConfig& b) {
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.quick, b.quick);
  EXPECT_EQ(a.bench_json_path, b.bench_json_path);
  EXPECT_EQ(a.artifact_json_path, b.artifact_json_path);
  EXPECT_EQ(a.serve_inflight, b.serve_inflight);
  EXPECT_EQ(a.serve_queue, b.serve_queue);
  EXPECT_EQ(a.serve_deadline_ms, b.serve_deadline_ms);
  EXPECT_EQ(a.serve_socket, b.serve_socket);
  EXPECT_EQ(a.cache_path, b.cache_path);
  EXPECT_EQ(a.serve_stats_interval_ms, b.serve_stats_interval_ms);
  EXPECT_EQ(a.serve_drain_timeout_ms, b.serve_drain_timeout_ms);
  EXPECT_EQ(a.serve_idle_timeout_ms, b.serve_idle_timeout_ms);
}

TEST(EngineConfigTest, KnobTableRoundTripsEveryKnob) {
  // Feeding KnobTable() rows back through ApplyOverride reproduces the
  // config exactly — the property that keeps the table, the env parsers
  // and the override parsers from drifting apart.
  EngineConfig original;
  original.threads = 6;
  original.quick = true;
  original.bench_json_path = "/tmp/b.jsonl";
  original.artifact_json_path = "/tmp/a.jsonl";
  original.serve_inflight = 2;
  original.serve_queue = 0;
  original.serve_deadline_ms = 250;
  original.serve_socket = "/tmp/s.sock";
  original.cache_path = "/tmp/c.snap";
  original.serve_stats_interval_ms = 1000;
  original.serve_drain_timeout_ms = 500;
  original.serve_idle_timeout_ms = 60000;

  for (const EngineConfig& seed : {original, EngineConfig()}) {
    EngineConfig rebuilt;
    for (const auto& [key, value] : seed.KnobTable()) {
      const Status st = rebuilt.ApplyOverride(key + "=" + value);
      EXPECT_TRUE(st.ok()) << key << "=" << value << ": " << st.ToString();
    }
    ExpectSameConfig(rebuilt, seed);
  }
}

}  // namespace
}  // namespace costsense::engine
