#ifndef COSTSENSE_ENGINE_ENGINE_H_
#define COSTSENSE_ENGINE_ENGINE_H_

#include <memory>

#include "common/status.h"
#include "engine/artifact.h"
#include "engine/config.h"
#include "runtime/thread_pool.h"

namespace costsense::engine {

/// The unified analysis engine: one configured entry point that every
/// driver builds its pipeline from. Creating an Engine applies the
/// config's process-wide setting (the global thread-pool size) and hands
/// out the configured artifact sinks, so no entry point assembles them ad
/// hoc.
class Engine {
 public:
  /// Applies `config` to the process: sizes the global thread pool.
  /// kFailedPrecondition when the global pool was already built at a
  /// different size (the config can no longer take effect — fail loudly
  /// instead of running mis-sized).
  [[nodiscard]] static Result<Engine> Create(EngineConfig config);

  const EngineConfig& config() const { return config_; }

  /// The process-global pool, sized per config().threads.
  runtime::ThreadPool& pool() const { return runtime::ThreadPool::Global(); }

  /// The configured artifact sink set (TextRenderer, plus the JSON
  /// sidecar when artifact_json_path is set).
  std::unique_ptr<ArtifactWriter> MakeArtifactWriter() const {
    return engine::MakeArtifactWriter(config_);
  }

 private:
  explicit Engine(EngineConfig config) : config_(std::move(config)) {}

  EngineConfig config_;
};

}  // namespace costsense::engine

#endif  // COSTSENSE_ENGINE_ENGINE_H_
