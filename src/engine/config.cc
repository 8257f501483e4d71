#include "engine/config.h"

#include <cstdlib>
#include <string>

#include "common/strings.h"

namespace costsense::engine {
namespace {

/// The knob table: one row per documented setting. Env names and override
/// keys are two spellings of the same knob and share one parser each, so
/// FromEnv and ApplyOverride cannot drift apart.
struct Knob {
  const char* key;       // override spelling ("threads=3")
  const char* env_name;  // environment spelling (COSTSENSE_THREADS)
};

constexpr Knob kKnobs[] = {
    {"threads", "COSTSENSE_THREADS"},
    {"quick", "COSTSENSE_QUICK"},
    {"bench_json", "COSTSENSE_BENCH_JSON"},
    {"artifact_json", "COSTSENSE_ARTIFACT_JSON"},
    {"cache_entries", "COSTSENSE_CACHE_ENTRIES"},
    {"cache_shards", "COSTSENSE_CACHE_SHARDS"},
    {"serve_inflight", "COSTSENSE_SERVE_INFLIGHT"},
    {"serve_queue", "COSTSENSE_SERVE_QUEUE"},
    {"serve_deadline_ms", "COSTSENSE_SERVE_DEADLINE_MS"},
    {"serve_socket", "COSTSENSE_SERVE_SOCKET"},
    {"cache_path", "COSTSENSE_CACHE_PATH"},
    {"serve_stats_interval_ms", "COSTSENSE_SERVE_STATS_INTERVAL_MS"},
    {"serve_drain_timeout_ms", "COSTSENSE_SERVE_DRAIN_TIMEOUT_MS"},
    {"serve_idle_timeout_ms", "COSTSENSE_SERVE_IDLE_TIMEOUT_MS"},
};

/// Environment variables of removed features, with what replaced them.
/// FromEnv refuses a set one: ignoring it would silently hand a script
/// something other than what it asked for (plain JSON where it expected a
/// compressed sidecar, say).
struct RetiredKnob {
  const char* env_name;
  const char* reason;
};

constexpr RetiredKnob kRetiredKnobs[] = {
    {"COSTSENSE_KERNEL",
     "the vertex-sweep kernels were removed; every worst case is solved by "
     "the LP method"},
    {"COSTSENSE_ARTIFACT_CHAIN",
     "the sidecar sink chains were removed; the sidecar is always plain "
     "JSON lines"},
    {"COSTSENSE_FAULT_RATE",
     "no binary read it; fault injection is a per-run setting of the tests "
     "and the fault sweep (runtime::ProbeOptions)"},
    {"COSTSENSE_MAX_RETRIES",
     "it changed no output; figure runs keep the default retry budget and "
     "the server never retries"},
};

[[nodiscard]] Status BadValue(std::string_view source, std::string_view value,
                              std::string_view expected) {
  return Status::InvalidArgument(StrFormat(
      "%.*s=\"%.*s\": expected %.*s", static_cast<int>(source.size()),
      source.data(), static_cast<int>(value.size()), value.data(),
      static_cast<int>(expected.size()), expected.data()));
}

[[nodiscard]] Status ParseSize(std::string_view source, std::string_view value,
                               size_t min_value, size_t* out) {
  const std::string text(value);
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' ||
      text.front() == '-' || parsed < min_value) {
    return BadValue(source, value,
                    StrFormat("an integer >= %zu", min_value));
  }
  *out = static_cast<size_t>(parsed);
  return Status::Ok();
}

/// Quick mode keeps its documented env semantics: any set, non-empty value
/// other than "0" turns it on ("COSTSENSE_QUICK=1 ./fig5..." and
/// "COSTSENSE_QUICK=yes" both work; "0" and "" mean off). Never an error.
bool ParseQuick(std::string_view value) {
  return !value.empty() && value != "0";
}

/// Applies one knob value to `config`. `source` names the spelling that
/// supplied the value (env var or override key) for error messages.
[[nodiscard]] Status ApplyKnob(EngineConfig* config, std::string_view key,
                               std::string_view source,
                               std::string_view value) {
  if (key == "threads") {
    // 0 keeps the documented meaning "hardware concurrency"; anything
    // non-numeric is a typed error, not a silent fallback.
    return ParseSize(source, value, 0, &config->threads);
  }
  if (key == "quick") {
    config->quick = ParseQuick(value);
    return Status::Ok();
  }
  if (key == "bench_json") {
    config->bench_json_path = std::string(value);
    return Status::Ok();
  }
  if (key == "artifact_json") {
    config->artifact_json_path = std::string(value);
    return Status::Ok();
  }
  if (key == "cache_entries") {
    return ParseSize(source, value, 1, &config->cache.max_entries);
  }
  if (key == "cache_shards") {
    return ParseSize(source, value, 1, &config->cache.shards);
  }
  if (key == "serve_inflight") {
    return ParseSize(source, value, 1, &config->serve_inflight);
  }
  if (key == "serve_queue") {
    return ParseSize(source, value, 0, &config->serve_queue);
  }
  if (key == "serve_deadline_ms") {
    return ParseSize(source, value, 0, &config->serve_deadline_ms);
  }
  if (key == "serve_socket") {
    config->serve_socket = std::string(value);
    return Status::Ok();
  }
  if (key == "cache_path") {
    config->cache_path = std::string(value);
    return Status::Ok();
  }
  if (key == "serve_stats_interval_ms") {
    return ParseSize(source, value, 0, &config->serve_stats_interval_ms);
  }
  if (key == "serve_drain_timeout_ms") {
    return ParseSize(source, value, 0, &config->serve_drain_timeout_ms);
  }
  if (key == "serve_idle_timeout_ms") {
    return ParseSize(source, value, 0, &config->serve_idle_timeout_ms);
  }
  return Status::InvalidArgument(
      StrFormat("unknown engine config key \"%.*s\"",
                static_cast<int>(key.size()), key.data()));
}

}  // namespace

Result<EngineConfig> EngineConfig::FromEnv() {
  // The single sanctioned environment read (lint rule R5).
  return FromEnv([](const char* name) { return std::getenv(name); });
}

Result<EngineConfig> EngineConfig::FromEnv(const EnvLookup& lookup) {
  for (const RetiredKnob& retired : kRetiredKnobs) {
    if (lookup(retired.env_name) != nullptr) {
      return Status::InvalidArgument(StrFormat(
          "%s is no longer supported: %s", retired.env_name, retired.reason));
    }
  }
  EngineConfig config;
  for (const Knob& knob : kKnobs) {
    const char* value = lookup(knob.env_name);
    if (value == nullptr) continue;
    const Status st = ApplyKnob(&config, knob.key, knob.env_name, value);
    if (!st.ok()) return st;
  }
  return config;
}

Status EngineConfig::ApplyOverride(std::string_view assignment) {
  const size_t eq = assignment.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument(
        StrFormat("override \"%.*s\" is not of the form key=value",
                  static_cast<int>(assignment.size()), assignment.data()));
  }
  const std::string_view key = assignment.substr(0, eq);
  return ApplyKnob(this, key, key, assignment.substr(eq + 1));
}

bool EngineConfig::IsOverride(std::string_view arg) {
  const size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return false;
  const std::string_view key = arg.substr(0, eq);
  for (const Knob& knob : kKnobs) {
    if (key == knob.key) return true;
  }
  return false;
}

std::vector<std::pair<std::string, std::string>> EngineConfig::KnobTable()
    const {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("threads", StrFormat("%zu", threads));
  rows.emplace_back("quick", quick ? "1" : "0");
  rows.emplace_back("bench_json", bench_json_path);
  rows.emplace_back("artifact_json", artifact_json_path);
  rows.emplace_back("cache_entries", StrFormat("%zu", cache.max_entries));
  rows.emplace_back("cache_shards", StrFormat("%zu", cache.shards));
  rows.emplace_back("serve_inflight", StrFormat("%zu", serve_inflight));
  rows.emplace_back("serve_queue", StrFormat("%zu", serve_queue));
  rows.emplace_back("serve_deadline_ms", StrFormat("%zu", serve_deadline_ms));
  rows.emplace_back("serve_socket", serve_socket);
  rows.emplace_back("cache_path", cache_path);
  rows.emplace_back("serve_stats_interval_ms",
                    StrFormat("%zu", serve_stats_interval_ms));
  rows.emplace_back("serve_drain_timeout_ms",
                    StrFormat("%zu", serve_drain_timeout_ms));
  rows.emplace_back("serve_idle_timeout_ms",
                    StrFormat("%zu", serve_idle_timeout_ms));
  return rows;
}

}  // namespace costsense::engine
