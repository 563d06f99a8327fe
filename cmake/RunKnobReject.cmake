# Knob-rejection test driver, invoked via `cmake -P`:
#
#   cmake "-DBINARIES=<exe>|<exe>|..." "-DKNOBS=OASIS_PROF=timeline|OASIS_CHECK=stritc"
#         -DWORK=<scratch dir> -P cmake/RunKnobReject.cmake
#
# For each KNOB=VALUE pair in KNOBS ('|'-separated), a value the knob table
# rejects, runs every binary in BINARIES ('|'-separated) without arguments
# under that one pair and requires each to exit 2 with the table's one-line
# diagnosis "KNOB=VALUE: expected ..." on stderr.
# A binary that ignores the knob fails the test even if it exits 2 for
# another reason (trace_tool's usage message, say). Every other OASIS_*
# variable is unset, so an ambient knob cannot reject first; OASIS_BENCH_RUNS=1
# and a per-binary timeout keep a binary that ignores the knob from running a
# full sweep before it is reported.

foreach(required BINARIES KNOBS WORK)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "RunKnobReject.cmake: -D${required}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK}")

execute_process(COMMAND "${CMAKE_COMMAND}" -E environment OUTPUT_VARIABLE environment)
string(REGEX MATCHALL "(^|\n)OASIS_[A-Za-z0-9_]*=" names "${environment}")
set(unset_args "")
foreach(match IN LISTS names)
  string(REGEX REPLACE "^\n?(OASIS_[A-Za-z0-9_]*)=$" "\\1" name "${match}")
  list(APPEND unset_args "--unset=${name}")
endforeach()

string(REPLACE "|" ";" binaries "${BINARIES}")
string(REPLACE "|" ";" knobs "${KNOBS}")
set(failed "")
foreach(pair IN LISTS knobs)
  foreach(binary IN LISTS binaries)
    get_filename_component(name "${binary}" NAME)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E env ${unset_args}
              OASIS_BENCH_RUNS=1 "${pair}" "${binary}"
      WORKING_DIRECTORY "${WORK}"
      OUTPUT_QUIET
      ERROR_VARIABLE stderr
      RESULT_VARIABLE status
      TIMEOUT 30)
    string(FIND "${stderr}" "${pair}: expected " diagnosis)
    if(status STREQUAL "2" AND diagnosis GREATER_EQUAL 0)
      message(STATUS "${name}: rejected ${pair}")
    else()
      message(STATUS "${name}: status ${status}, ${pair} not rejected")
      list(APPEND failed "${name} (${pair})")
    endif()
  endforeach()
endforeach()

list(LENGTH binaries total)
list(LENGTH failed failures)
if(failures GREATER 0)
  list(JOIN failed ", " failed_names)
  message(FATAL_ERROR "${failures} binary/knob runs did not reject their knob: "
                      "${failed_names}")
endif()
message(STATUS "all ${total} binaries reject ${KNOBS}")
