# Runs each bench named in BENCHES (comma-separated target names under
# BENCH_DIR) at a tiny scale with one shared LSL_BENCH_METRICS_DIR, and
# expects exactly one <binary>.metrics.json per bench: no two binaries may
# share a sidecar name and overwrite each other's metrics.
#
#   cmake -DBENCH_DIR=<dir> -DBENCHES=a,b -DOUT_DIR=<dir> -P bench_sidecar_test.cmake
string(REPLACE "," ";" benches "${BENCHES}")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(expected "")
foreach(bench IN LISTS benches)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env LSL_BENCH_SCALE=0.01
            "LSL_BENCH_METRICS_DIR=${OUT_DIR}" "${BENCH_DIR}/${bench}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
  list(APPEND expected "${bench}.metrics.json")
endforeach()
file(GLOB found RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.metrics.json")
list(SORT found)
list(SORT expected)
if(NOT found STREQUAL expected)
  message(FATAL_ERROR "sidecars: got [${found}], want [${expected}]")
endif()
message(STATUS "one sidecar per bench: ${found}")
