# ctest helper: runs urmem-run on SPEC with --out=OUT and passes only
# when the run succeeds and OUT is byte-identical to GOLDEN.
#
#   cmake -DRUN=<urmem-run> -DSPEC=<spec.json> -DGOLDEN=<golden.out.json>
#         -DOUT=<report.json> -P compare_golden.cmake
execute_process(COMMAND "${RUN}" "${SPEC}" "--out=${OUT}"
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE errors)
if(NOT result STREQUAL "0")
  message(FATAL_ERROR "urmem-run ${SPEC}: exit ${result}\n${errors}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)
if(NOT differs STREQUAL "0")
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
