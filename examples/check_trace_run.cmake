# Runs an example binary with --trace-out and then validates the written
# trace with tools/obs/check_trace.py — the CI smoke that pins the
# parjoin-trace-v1 writer against the out-of-tree checker (a schema drift
# in obs::TraceRecorder fails here even if the in-tree parser drifted with
# it).
#
# Usage:
#   cmake -DCMD=<command line> -DTRACE_FILE=<path> -DCHECKER=<check_trace.py>
#         -DPYTHON=<python3> [-DMIN_ROUNDS=<k>] [-DREQUIRE_KINDS=<k1,k2,...>]
#         -P check_trace_run.cmake

foreach(var CMD TRACE_FILE CHECKER PYTHON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_run.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED MIN_ROUNDS)
  set(MIN_ROUNDS 1)
endif()
set(require_kinds)
if(DEFINED REQUIRE_KINDS)
  set(require_kinds --require-kinds "${REQUIRE_KINDS}")
endif()

file(REMOVE "${TRACE_FILE}")
separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(
  COMMAND ${cmd_list}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(APPEND out "${err}")
message("--- command: ${CMD}\n--- exit code: ${code}\n${out}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "expected exit code 0, got '${code}'")
endif()
if(NOT EXISTS "${TRACE_FILE}")
  message(FATAL_ERROR "trace file ${TRACE_FILE} was not written")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${TRACE_FILE}" --min-rounds
          "${MIN_ROUNDS}" ${require_kinds}
  RESULT_VARIABLE check_code
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
string(APPEND check_out "${check_err}")
message("--- check_trace: exit code: ${check_code}\n${check_out}")
if(NOT check_code EQUAL 0)
  message(FATAL_ERROR "trace failed parjoin-trace-v1 validation")
endif()
