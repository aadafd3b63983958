# Runs lslsim on a scenario file that must fail to parse, and expects the
# CLI's parse-error contract: exit status 1 and the offending line number
# ("line <LINE>") on stderr -- not an abort, and not a run that succeeds.
#
#   cmake -DLSLSIM=<exe> -DSCENARIO=<file> -DLINE=<n> -P lslsim_parse_error_test.cmake
execute_process(
  COMMAND "${LSLSIM}" "${SCENARIO}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "lslsim exited with '${rc}', want 1\nstderr:\n${err}")
endif()
if(NOT err MATCHES "line ${LINE}:")
  message(FATAL_ERROR "stderr lacks 'line ${LINE}:'\nstderr:\n${err}")
endif()
message(STATUS "rejected: ${err}")
