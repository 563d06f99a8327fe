# Golden-file test driver, invoked via `cmake -P`:
#
#   cmake -DBINARY=<exe> -DGOLDEN=<repo>/tests/golden/<name>.txt
#         -DWORK=<scratch dir> [-DUPDATE=1] -P cmake/RunGolden.cmake
#
# Runs BINARY with a pinned environment — OASIS_BENCH_RUNS=2, OASIS_JOBS=2
# and OASIS_BENCH_JSON fixed, every other OASIS_* variable unset, whether or
# not it names a knob (OASIS_CHECK deliberately passes through, so CI runs
# the golden suite with the invariant checker in strict mode; OASIS_PROF
# passes through too — the profiler's contract is that stdout is
# byte-identical in every mode, and running goldens under OASIS_PROF=summary
# proves it) — captures stdout, and compares it byte-for-byte against
# GOLDEN. On mismatch the test
# fails with both SHA-256 digests and keeps the observed output next to the
# scratch dir for upload/diffing. With UPDATE=1 the observed output replaces the golden
# file instead: behavioral drift becomes a reviewed diff, never an accident.

foreach(required BINARY GOLDEN WORK)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "RunGolden.cmake: -D${required}=... is required")
  endif()
endforeach()

get_filename_component(name "${GOLDEN}" NAME_WE)
file(MAKE_DIRECTORY "${WORK}")
set(observed "${WORK}/${name}.out")

# EXTRA_ENV: optional semicolon-separated VAR=value pairs appended after the
# pinned environment, for binaries whose golden needs a per-test knob (e.g.
# datacenter_day pins OASIS_DC_RACKS=8 — the CI smoke grid, not the full
# 256-rack day). The knob is scrubbed first so only the pin applies.
if(NOT DEFINED EXTRA_ENV)
  set(EXTRA_ENV "")
endif()

# Default-deny: unset every OASIS_* name in the environment except the two
# pass-throughs, so a new knob can never leak into a golden.
execute_process(COMMAND "${CMAKE_COMMAND}" -E environment OUTPUT_VARIABLE environment)
string(REGEX MATCHALL "(^|\n)OASIS_[A-Za-z0-9_]*=" names "${environment}")
set(unset_args "")
foreach(match IN LISTS names)
  string(REGEX REPLACE "^\n?(OASIS_[A-Za-z0-9_]*)=$" "\\1" knob "${match}")
  if(NOT knob STREQUAL "OASIS_CHECK" AND NOT knob STREQUAL "OASIS_PROF")
    list(APPEND unset_args "--unset=${knob}")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ${unset_args}
          OASIS_BENCH_RUNS=2 OASIS_JOBS=2 "OASIS_BENCH_JSON=${WORK}/${name}.json"
          ${EXTRA_ENV}
          "${BINARY}"
  WORKING_DIRECTORY "${WORK}"
  OUTPUT_FILE "${observed}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "golden ${name}: ${BINARY} exited with status ${status}")
endif()

if(UPDATE)
  configure_file("${observed}" "${GOLDEN}" COPYONLY)
  file(SHA256 "${GOLDEN}" digest)
  message(STATUS "golden ${name}: updated ${GOLDEN} (sha256 ${digest})")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "golden ${name}: ${GOLDEN} missing - run tools/update_golden.sh "
                      "and review/commit the result")
endif()

file(SHA256 "${GOLDEN}" want)
file(SHA256 "${observed}" got)
if(NOT want STREQUAL got)
  message(FATAL_ERROR "golden ${name}: output drifted\n"
                      "  expected sha256 ${want} (${GOLDEN})\n"
                      "  observed sha256 ${got} (${observed})\n"
                      "If the change is intentional, run tools/update_golden.sh and "
                      "commit the reviewed diff.")
endif()
message(STATUS "golden ${name}: output matches (sha256 ${got})")
