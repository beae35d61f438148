# ctest golden check: a report binary's stdout must equal its committed
# golden text byte for byte.
# Usage: cmake -DREPORT=<binary> -DGOLDEN=<file> -DOUT=<file> -P this-file
if(NOT REPORT OR NOT GOLDEN OR NOT OUT)
  message(FATAL_ERROR "REPORT, GOLDEN and OUT are required")
endif()

execute_process(
  COMMAND "${REPORT}"
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${REPORT} failed (rc=${rc})")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (actual: ${OUT})")
endif()
