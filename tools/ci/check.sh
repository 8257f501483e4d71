#!/usr/bin/env bash
# The one CI entry point: configure + build + full test suite + the lint
# gate (machine-readable), then targeted sanitizer builds. Each stage owns
# a stable exit code so automation can tell *what* broke without parsing
# logs:
#
#   0  everything passed
#   2  configure or build failed (plain build tree)
#   3  ctest suite failed
#   4  costsense-lint found violations (its JSON is on stdout) or its
#      configuration is broken (e.g. unparseable layers.toml)
#   5  AddressSanitizer + UndefinedBehaviorSanitizer build or its test
#      subset failed
#   6  ThreadSanitizer build or its test subset failed
#   7  the protocol fuzz smoke found a violation
#
# The sanitizer stages rebuild into their own trees (build-asan,
# build-tsan) and run the label subsets the root CMakeLists documents for
# them: resilience, kernels, runtime, serve, persistence and fuzz under
# ASan+UBSan (one tree, UBSan halting on the first finding; serve and
# persistence run the wire and snapshot decoders, fuzz drives a live
# session's send path with mutated frames), concurrency under TSan. Set
# COSTSENSE_CI_SKIP_SANITIZERS=1 to stop after the lint gate (fast local
# pre-push loop).
set -u

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
JOBS="${COSTSENSE_CI_JOBS:-$(nproc)}"

stage() { echo "== costsense-ci: $*" >&2; }

stage "configure + build (build/)"
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null || exit 2
cmake --build "$ROOT/build" -j "$JOBS" || exit 2

stage "ctest (full suite)"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" || exit 3

stage "lint gate (--format json)"
"$ROOT/build/tools/lint/costsense_lint" \
  --format json \
  --relative-to "$ROOT" \
  --exclude "$ROOT/tests/tools/lint/corpus" \
  --layers "$ROOT/tools/lint/layers.toml" \
  --root "$ROOT/src" \
  --root "$ROOT/bench" \
  --root "$ROOT/tests" \
  --root "$ROOT/tools" || exit 4

stage "protocol fuzz smoke"
"$ROOT/build/tools/fuzz/protocol_fuzz" seed=7 iters=1500 \
  deadline_ms=120000 >/dev/null || exit 7

if [ "${COSTSENSE_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  stage "sanitizers skipped (COSTSENSE_CI_SKIP_SANITIZERS=1)"
  exit 0
fi

stage "AddressSanitizer + UBSan (build-asan/, ctest -L 'resilience|kernels|runtime|serve|persistence|fuzz')"
cmake -B "$ROOT/build-asan" -S "$ROOT" -DCOSTSENSE_ASAN=ON \
  -DCOSTSENSE_UBSAN=ON >/dev/null || exit 5
cmake --build "$ROOT/build-asan" -j "$JOBS" || exit 5
UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir "$ROOT/build-asan" \
  -L 'resilience|kernels|runtime|serve|persistence|fuzz' --output-on-failure \
  -j "$JOBS" || exit 5

stage "ThreadSanitizer (build-tsan/, ctest -L concurrency)"
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DCOSTSENSE_TSAN=ON >/dev/null || exit 6
cmake --build "$ROOT/build-tsan" -j "$JOBS" || exit 6
ctest --test-dir "$ROOT/build-tsan" -L concurrency --output-on-failure \
  -j "$JOBS" || exit 6

stage "all stages passed"
exit 0
