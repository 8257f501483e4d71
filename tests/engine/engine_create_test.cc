// Failure-path tests of Engine::Create, isolated in their own binary: the
// happy-path suites must never observe the global thread pool in the
// states these tests deliberately force (the pool is built once per
// process, so poisoning it is irreversible within a binary).
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/config.h"
#include "runtime/thread_pool.h"

namespace costsense::engine {
namespace {

/// An EnvLookup backed by a map, so no test touches the real process
/// environment (and lint rule R5 stays confined to config.cc).
EngineConfig::EnvLookup MapEnv(std::map<std::string, std::string> vars) {
  return [vars = std::move(vars)](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  };
}

TEST(EngineCreateTest, PoolAlreadyBuiltAtRequestedSizeSucceeds) {
  // Force the global pool into existence, then create an engine asking
  // for exactly that size: the config can take effect, so this succeeds.
  const size_t built = runtime::ThreadPool::Global().num_threads();
  EngineConfig config;
  config.threads = built;
  const Result<Engine> engine = Engine::Create(config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->config().threads, built);
  EXPECT_EQ(&engine->pool(), &runtime::ThreadPool::Global());
}

TEST(EngineCreateTest, PoolBuiltAtDifferentSizeIsFailedPrecondition) {
  // The pool exists (forced above / by the sibling test); asking for a
  // different size must refuse loudly rather than run mis-sized.
  const size_t built = runtime::ThreadPool::Global().num_threads();
  EngineConfig config;
  config.threads = built + 1;
  const Result<Engine> engine = Engine::Create(config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
  // The message names both sizes so the operator can fix the invocation.
  EXPECT_NE(engine.status().message().find(std::to_string(built)),
            std::string::npos)
      << engine.status().ToString();

  // threads=0 ("use the default") is always reconcilable or rejected
  // deterministically; either way Create must not crash, and a success
  // leaves the built size unchanged.
  EngineConfig relaxed;
  relaxed.threads = 0;
  const Result<Engine> maybe = Engine::Create(relaxed);
  if (maybe.ok()) {
    EXPECT_EQ(runtime::ThreadPool::Global().num_threads(), built);
  } else {
    EXPECT_EQ(maybe.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EngineCreateTest, MalformedEnvironmentIsInvalidArgument) {
  // Every malformed COSTSENSE_* value is a typed kInvalidArgument naming
  // the variable — never a silent fallback that runs misconfigured.
  const struct {
    const char* var;
    const char* value;
  } kCases[] = {
      {"COSTSENSE_THREADS", "banana"},
      {"COSTSENSE_THREADS", "-2"},
      {"COSTSENSE_CACHE_ENTRIES", "0"},
      {"COSTSENSE_CACHE_SHARDS", "zero"},
      {"COSTSENSE_SERVE_INFLIGHT", "0"},
      {"COSTSENSE_SERVE_QUEUE", "-1"},
      {"COSTSENSE_SERVE_DEADLINE_MS", "soon"},
  };
  for (const auto& c : kCases) {
    const Result<EngineConfig> config =
        EngineConfig::FromEnv(MapEnv({{c.var, c.value}}));
    ASSERT_FALSE(config.ok()) << c.var << "=" << c.value;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
        << c.var << "=" << c.value;
    EXPECT_NE(config.status().message().find(c.var), std::string::npos)
        << "error must name the variable: " << config.status().ToString();
  }
}

TEST(EngineCreateTest, WellFormedEnvironmentReachesTheEngine) {
  const size_t built = runtime::ThreadPool::Global().num_threads();
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapEnv({
      {"COSTSENSE_THREADS", std::to_string(built)},
      {"COSTSENSE_SERVE_INFLIGHT", "2"},
      {"COSTSENSE_SERVE_QUEUE", "0"},
      {"COSTSENSE_SERVE_DEADLINE_MS", "250"},
      {"COSTSENSE_SERVE_SOCKET", "/tmp/alt.sock"},
  }));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->serve_inflight, 2u);
  EXPECT_EQ(config->serve_queue, 0u);
  EXPECT_EQ(config->serve_deadline_ms, 250u);
  EXPECT_EQ(config->serve_socket, "/tmp/alt.sock");
  const Result<Engine> engine = Engine::Create(*config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->config().serve_inflight, 2u);
}

TEST(EngineCreateTest, RetiredKernelKnobNeverReachesTheEngine) {
  // A set COSTSENSE_KERNEL is refused at parse time, so no engine is ever
  // created from a config that silently dropped it.
  const Result<EngineConfig> config =
      EngineConfig::FromEnv(MapEnv({{"COSTSENSE_KERNEL", "simd"}}));
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(config.status().message().find("COSTSENSE_KERNEL"),
            std::string::npos)
      << config.status().ToString();
}

TEST(EngineCreateTest, RetiredArtifactChainKnobNeverReachesTheEngine) {
  const Result<EngineConfig> config = EngineConfig::FromEnv(
      MapEnv({{"COSTSENSE_ARTIFACT_CHAIN", "buffered"}}));
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(config.status().message().find("COSTSENSE_ARTIFACT_CHAIN"),
            std::string::npos)
      << config.status().ToString();
}

TEST(EngineCreateTest, RetiredFaultKnobsNeverReachTheEngine) {
  // Like COSTSENSE_KERNEL: refused at parse time, whatever the value.
  for (const char* name : {"COSTSENSE_FAULT_RATE", "COSTSENSE_MAX_RETRIES"}) {
    const Result<EngineConfig> config =
        EngineConfig::FromEnv(MapEnv({{name, "1"}}));
    ASSERT_FALSE(config.ok()) << name;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(config.status().message().find(name), std::string::npos)
        << config.status().ToString();
  }
}

}  // namespace
}  // namespace costsense::engine
