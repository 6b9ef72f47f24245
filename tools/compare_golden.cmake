# ctest helper: runs RUN on SPEC (plus any extra ARGS) with
# OUT_FLAG=OUT and passes only when the run succeeds and OUT is
# byte-identical to GOLDEN. OUT_FLAG defaults to --out (urmem-run's
# report); urmem-serve's golden is its --counters-out section.
#
#   cmake -DRUN=<tool> -DSPEC=<spec.json> -DGOLDEN=<golden.json>
#         -DOUT=<report.json> [-DOUT_FLAG=--counters-out]
#         [-DARGS=<arg;arg>] -P compare_golden.cmake
if(NOT DEFINED OUT_FLAG)
  set(OUT_FLAG --out)
endif()
execute_process(COMMAND "${RUN}" "${SPEC}" ${ARGS} "${OUT_FLAG}=${OUT}"
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE errors)
if(NOT result STREQUAL "0")
  message(FATAL_ERROR "${RUN} ${SPEC}: exit ${result}\n${errors}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)
if(NOT differs STREQUAL "0")
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
