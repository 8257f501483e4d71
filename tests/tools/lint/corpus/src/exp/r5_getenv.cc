// Fixture: R5 violations — direct environment reads in library code.
// Knobs must flow through engine::EngineConfig::FromEnv; a "getenv" in a
// string or comment must NOT fire.
#include <cstdlib>

namespace corpus {

// getenv() in a comment is fine, as is "getenv(NAME)" in a string.
const char* kDoc = "never call getenv(NAME) directly";

const char* AmbientKnob() { return std::getenv("COSTSENSE_THREADS"); }

const char* HardenedKnob() { return secure_getenv("COSTSENSE_FAULT_RATE"); }

const char* Suppressed() {
  // costsense-lint: allow(R5, "fixture demonstrating a justified suppression")
  return std::getenv("COSTSENSE_QUICK");
}

}  // namespace corpus
