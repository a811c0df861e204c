# Runs one binary (an example or a bench) and checks BOTH its exit code
# and its combined output — ctest's WILL_FAIL / PASS_REGULAR_EXPRESSION
# can each check only one of the two, and the ingress contract pins both
# (bad spec -> exit 1 with the offending line; bad flag -> exit 2 with
# usage; failed bench JSON write -> exit 1 with the error).
#
# Usage:
#   cmake -DCMD=<command line> -DEXPECT_CODE=<n> [-DEXPECT_OUTPUT=<regex>]
#         -P check_run.cmake

if(NOT DEFINED CMD OR NOT DEFINED EXPECT_CODE)
  message(FATAL_ERROR "check_run.cmake needs -DCMD=... and -DEXPECT_CODE=...")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(
  COMMAND ${cmd_list}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(APPEND out "${err}")
message("--- command: ${CMD}\n--- exit code: ${code}\n${out}")

if(NOT code EQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "expected exit code ${EXPECT_CODE}, got '${code}'")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
