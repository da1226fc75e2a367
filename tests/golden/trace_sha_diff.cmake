# Trace-bytes regression check: record one synthetic profile and one fuzz
# program with trace_record and compare each file's SHA-256 with the
# checked-in listing. The codec round-trip tests compare decode(encode(x))
# with x, which holds whatever bytes the encoder writes; this pins the
# bytes themselves (header, region and init-word tables, records).
#
# Invoked by ctest (see golden_trace_bytes in the top-level CMakeLists):
#   cmake -DBINARY=.../trace_record -DGOLDEN=... -DOUT=... \
#         -P trace_sha_diff.cmake
#
# Regenerating after an intentional format change: run the ctest once,
# then copy OUT (the listing, in sha256sum's format) over GOLDEN.
if(NOT BINARY OR NOT GOLDEN OR NOT OUT)
  message(FATAL_ERROR "trace_sha_diff.cmake needs -DBINARY, -DGOLDEN, -DOUT")
endif()

set(work ${OUT}.d)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})
set(listing "")
macro(record name)
  execute_process(
    COMMAND ${BINARY} --out=${work}/${name} ${ARGN}
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET
    ERROR_VARIABLE run_err
  )
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${ARGN} failed (${run_rc}): ${run_err}")
  endif()
  file(SHA256 ${work}/${name} sha)
  string(APPEND listing "${sha}  ${name}\n")
endmacro()
record(mcf_2000.trace --profile=mcf --instrs=2000)
record(fuzz_seed42.trace --fuzz-seed=42)
file(REMOVE_RECURSE ${work})
file(WRITE ${OUT} "${listing}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE diff_rc
)
if(NOT diff_rc EQUAL 0)
  file(READ ${GOLDEN} expected)
  message(FATAL_ERROR
          "trace file bytes differ from golden ${GOLDEN}.\n"
          "expected:\n${expected}\ngot:\n${listing}\n"
          "If the change is intentional, regenerate with:\n"
          "  ${CMAKE_COMMAND} -E copy ${OUT} ${GOLDEN}")
endif()
