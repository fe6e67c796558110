# Byte-compare a figure bench's --smoke stdout with its checked-in golden
# file. Usage:
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare_golden.cmake
# The actual output is left in ACTUAL, so a failure can be diffed by hand.
execute_process(COMMAND "${BENCH}" --smoke
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${BENCH} --smoke output differs from ${GOLDEN}; "
                      "actual output: ${ACTUAL}")
endif()
