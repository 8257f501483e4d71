# Golden-stdout regression check, run as `cmake -P` from ctest:
#
#   cmake -DBINARY=<figure binary> -DEXPECTED=<committed .stdout>
#         [-DTHREADS=N] [-DARTIFACT_JSON=<sidecar path>]
#         [-DCACHE_PATH=<snapshot path>] [-DACTUAL_OUT=<dump path>]
#         -P run_golden.cmake
#
# Runs the binary in quick mode at the requested thread count and
# byte-compares its stdout against the committed expectation. This is the
# executable form of the engine's central contract: figure/table stdout is
# a pure function of the experiment, identical across thread counts and
# (absorbed) faults — stderr carries everything else. A mismatch dumps the
# actual bytes next to the build for diffing.
if(NOT DEFINED BINARY OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "usage: cmake -DBINARY=... -DEXPECTED=... -P run_golden.cmake")
endif()

set(ENV{COSTSENSE_QUICK} "1")
if(DEFINED THREADS)
  set(ENV{COSTSENSE_THREADS} "${THREADS}")
endif()
# Optionally turn the structured sidecar on: it must not perturb stdout,
# and it must actually get written (checked after the run).
if(DEFINED ARTIFACT_JSON)
  get_filename_component(artifact_dir "${ARTIFACT_JSON}" DIRECTORY)
  file(MAKE_DIRECTORY "${artifact_dir}")
  file(REMOVE "${ARTIFACT_JSON}")
  set(ENV{COSTSENSE_ARTIFACT_JSON} "${ARTIFACT_JSON}")
endif()

# Optionally turn the persistent oracle-cache snapshot on. The binary runs
# twice from a clean slate: the cold run writes the snapshot, the warm run
# loads it — and BOTH must produce the committed bytes, which is the
# executable form of "a warm cache changes latency, never answers".
if(DEFINED CACHE_PATH)
  get_filename_component(cache_dir "${CACHE_PATH}" DIRECTORY)
  file(MAKE_DIRECTORY "${cache_dir}")
  file(REMOVE "${CACHE_PATH}")
  set(ENV{COSTSENSE_CACHE_PATH} "${CACHE_PATH}")
endif()

execute_process(
  COMMAND "${BINARY}"
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}:\n${stderr_text}")
endif()

if(DEFINED ARTIFACT_JSON AND NOT EXISTS "${ARTIFACT_JSON}")
  message(FATAL_ERROR "sidecar ${ARTIFACT_JSON} was not written")
endif()

if(DEFINED CACHE_PATH)
  if(NOT EXISTS "${CACHE_PATH}")
    message(FATAL_ERROR "cache snapshot ${CACHE_PATH} was not written")
  endif()
  execute_process(
    COMMAND "${BINARY}"
    OUTPUT_VARIABLE warm_actual
    ERROR_VARIABLE warm_stderr
    RESULT_VARIABLE warm_rc)
  if(NOT warm_rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} (warm) exited with ${warm_rc}:\n${warm_stderr}")
  endif()
  if(NOT warm_actual STREQUAL actual)
    if(DEFINED ACTUAL_OUT)
      file(WRITE "${ACTUAL_OUT}.warm" "${warm_actual}")
    endif()
    message(FATAL_ERROR
      "warm-cache stdout diverged from the cold run for ${BINARY}\n"
      "the snapshot made the answers drift — that is a correctness bug")
  endif()
endif()

file(READ "${EXPECTED}" expected)
if(actual STREQUAL expected)
  return()
endif()

if(DEFINED ACTUAL_OUT)
  file(WRITE "${ACTUAL_OUT}" "${actual}")
  message(FATAL_ERROR
    "stdout drifted from ${EXPECTED}\n"
    "actual bytes dumped to ${ACTUAL_OUT}\n"
    "if the output changed on purpose, copy the dump over the golden file")
endif()
message(FATAL_ERROR "stdout drifted from ${EXPECTED}")
