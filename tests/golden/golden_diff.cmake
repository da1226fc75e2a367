# Golden-file regression check: rerun a bench binary with pinned flags
# and byte-compare its CSV output against the checked-in reference.
#
# Invoked by ctest (see the golden tests in the top-level CMakeLists):
#   cmake -DBINARY=... -DARGS="--instrs=2000" -DGOLDEN=... -DOUT=... \
#         -P golden_diff.cmake
#
# Regenerating golden_<name> after an intentional behaviour change (ARGS
# as add_golden_csv in the top-level CMakeLists gives them):
#   ./build/<bench> <ARGS> --csv=tests/golden/<name>.csv
#
# With -DSECTION=ON the golden is one table's block of a longer CSV: it
# must appear in the output as a whole run of lines. Regenerate it by
# copying that table's lines (header included) out of the output.
if(NOT BINARY OR NOT GOLDEN OR NOT OUT)
  message(FATAL_ERROR "golden_diff.cmake needs -DBINARY, -DGOLDEN, -DOUT")
endif()

separate_arguments(bench_args NATIVE_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BINARY} ${bench_args} --csv=${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET
  ERROR_VARIABLE run_err
)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} failed (${run_rc}): ${run_err}")
endif()

if(SECTION)
  file(READ ${GOLDEN} golden_text)
  file(READ ${OUT} out_text)
  string(FIND "\n${out_text}" "\n${golden_text}" section_at)
  if(section_at EQUAL -1)
    message(FATAL_ERROR
            "CSV output has no block equal to golden ${GOLDEN}.\n"
            "If the change is intentional, copy that table's lines from:\n"
            "  ${BINARY} ${ARGS} --csv=${OUT}")
  endif()
  return()
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE diff_rc
)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
          "CSV output differs from golden ${GOLDEN}.\n"
          "If the change is intentional, regenerate with:\n"
          "  ${BINARY} ${ARGS} --csv=${GOLDEN}")
endif()
