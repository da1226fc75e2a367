# Cycle-count regression check for the perf_driver grid: run the default
# cell grid at a pinned budget and compare every cell's key,
# committed_instrs, cycles and stop reason against the checked-in
# reference. Wall time and MIPS are stripped, so only simulated results
# are compared.
#
# Invoked by ctest (see the golden tests in the top-level CMakeLists):
#   cmake -DBINARY=... -DARGS="--instrs=20000" -DGOLDEN=... -DOUT=... \
#         -P perf_cells_diff.cmake
#
# Regenerating the golden after an intentional timing-model change: run
# the ctest once, then copy OUT (the stripped listing) over GOLDEN.
if(NOT BINARY OR NOT GOLDEN OR NOT OUT)
  message(FATAL_ERROR "perf_cells_diff.cmake needs -DBINARY, -DGOLDEN, -DOUT")
endif()

separate_arguments(driver_args NATIVE_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BINARY} ${driver_args} --out=${OUT}.json
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET
  ERROR_VARIABLE run_err
)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} failed (${run_rc}): ${run_err}")
endif()

# One cell per artifact line; the key grammar is perf_driver's --cells
# grammar ("/mode" and "/cores=N" only when non-default).
set(cell_re "\"workload\": \"([^\"]*)\", \"policy\": \"([^\"]*)\", ")
string(APPEND cell_re "\"preset\": \"([^\"]*)\", \"mode\": \"([^\"]*)\", ")
string(APPEND cell_re "\"cores\": ([0-9]+), \"committed_instrs\": ([0-9]+), ")
string(APPEND cell_re "\"cycles\": ([0-9]+),.* \"stop\": \"([^\"]*)\"")
file(STRINGS ${OUT}.json artifact_lines REGEX "\"workload\": ")
set(listing "")
foreach(line IN LISTS artifact_lines)
  if(NOT line MATCHES "${cell_re}")
    message(FATAL_ERROR "unexpected artifact line: ${line}")
  endif()
  set(key "${CMAKE_MATCH_1}/${CMAKE_MATCH_2}/${CMAKE_MATCH_3}")
  if(NOT CMAKE_MATCH_4 STREQUAL "detailed")
    string(APPEND key "/${CMAKE_MATCH_4}")
  endif()
  if(CMAKE_MATCH_5 GREATER 1)
    string(APPEND key "/cores=${CMAKE_MATCH_5}")
  endif()
  string(APPEND listing "${key} committed_instrs=${CMAKE_MATCH_6}"
         " cycles=${CMAKE_MATCH_7} stop=${CMAKE_MATCH_8}\n")
endforeach()
file(WRITE ${OUT} "${listing}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE diff_rc
)
if(NOT diff_rc EQUAL 0)
  file(READ ${GOLDEN} expected)
  message(FATAL_ERROR
          "perf_driver cells differ from golden ${GOLDEN}.\n"
          "expected:\n${expected}\ngot:\n${listing}\n"
          "If the change is intentional, regenerate with:\n"
          "  ${CMAKE_COMMAND} -E copy ${OUT} ${GOLDEN}")
endif()
