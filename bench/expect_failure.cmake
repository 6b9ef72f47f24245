# ctest helper: runs BENCH with the single argument ARG and passes only
# when the process exits 2 (a flag error, not a crash) and its combined
# stdout/stderr matches the regex EXPECT.
#
#   cmake -DBENCH=<exe> -DARG=<arg> -DEXPECT=<regex> -P expect_failure.cmake
execute_process(COMMAND "${BENCH}" "${ARG}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT result STREQUAL "2")
  message(FATAL_ERROR "${BENCH} ${ARG}: expected exit 2, got ${result}\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARG}: output does not match '${EXPECT}'\n${output}")
endif()
