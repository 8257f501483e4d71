#include "engine/engine.h"

#include <utility>

namespace costsense::engine {

Result<Engine> Engine::Create(EngineConfig config) {
  Status st = runtime::ConfigureGlobalThreadCount(config.threads);
  if (!st.ok()) return st;
  return Engine(std::move(config));
}

}  // namespace costsense::engine
