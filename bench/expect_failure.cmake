# ctest helper: runs BENCH with the single argument ARG and passes only
# when the process fails (nonzero exit or a signal) and its combined
# stdout/stderr matches the regex EXPECT.
#
#   cmake -DBENCH=<exe> -DARG=<arg> -DEXPECT=<regex> -P expect_failure.cmake
execute_process(COMMAND "${BENCH}" "${ARG}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(result STREQUAL "0")
  message(FATAL_ERROR "${BENCH} ${ARG}: expected a failure, got exit 0\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARG}: output does not match '${EXPECT}'\n${output}")
endif()
