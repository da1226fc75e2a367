# fuzz_driver end-to-end checks (ctest -P script).
#
# fuzz_driver is a one-shot fuzz campaign: it prints the same triage
# report as `campaign_driver triage` and exits 1 when any seed failed.
# Inputs: -DFUZZ (fuzz_driver binary), -DCAMPAIGN (campaign_driver
# binary), -DMANIFEST (a mutated fuzz campaign whose seeds all fail),
# -DWORK (scratch directory).
#
#   (a) the repro line that triage prints for the campaign's first group
#       reproduces the failure: it names the injected defect, so the
#       built fuzz_driver exits 1 on it. That holds for triage of the
#       journals and of the merged artifact, and triage without
#       --manifest exits 2 (a merged artifact alone names no axis);
#   (b) a mutated sweep prints a byte-identical report at 1 and 4
#       threads, and exits 1;
#   (c) a clean sweep exits 0.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# (a) campaign triage -> first repro line -> the built fuzz_driver.
execute_process(COMMAND ${CAMPAIGN} run --manifest=${MANIFEST} --dir=${WORK}
                        --threads=2
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign run failed (rc=${rc})")
endif()
execute_process(COMMAND ${CAMPAIGN} merge --manifest=${MANIFEST} --dir=${WORK}
                        --out=${WORK}/merged.jsonl
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign merge failed (rc=${rc})")
endif()
foreach(source --dir=${WORK} --merged=${WORK}/merged.jsonl)
  execute_process(COMMAND ${CAMPAIGN} triage --manifest=${MANIFEST} ${source}
    OUTPUT_VARIABLE triage RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "triage ${source} exited ${rc}; expected 1 (mutated campaign)")
  endif()
  if(NOT triage MATCHES "repro: +fuzz_driver ([^\n]*)")
    message(FATAL_ERROR "no repro line in the triage report:\n${triage}")
  endif()
  separate_arguments(repro_args UNIX_COMMAND "${CMAKE_MATCH_1}")
  execute_process(COMMAND ${FUZZ} ${repro_args}
    OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "repro `fuzz_driver ${CMAKE_MATCH_1}` (triage ${source}) exited "
      "${rc}; expected 1 (the failure it was printed for)")
  endif()
endforeach()
execute_process(COMMAND ${CAMPAIGN} triage --merged=${WORK}/merged.jsonl
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "triage --merged without --manifest exited ${rc}; expected 2")
endif()

# (b) thread-count invariance of a failing sweep's report.
foreach(threads 1 4)
  execute_process(
    COMMAND ${FUZZ} --count=24 --policies=baseline,WFC
            --mutate=skip-squash-release --threads=${threads}
    OUTPUT_VARIABLE report_${threads} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "mutated sweep at --threads=${threads} exited ${rc}; expected 1")
  endif()
endforeach()
if(NOT report_1 STREQUAL report_4)
  message(FATAL_ERROR "reports differ across thread counts:\n--- 1 ---\n"
    "${report_1}\n--- 4 ---\n${report_4}")
endif()

# (c) a clean sweep passes.
execute_process(COMMAND ${FUZZ} --count=8 OUTPUT_VARIABLE clean
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean sweep exited ${rc}; expected 0:\n${clean}")
endif()
message(STATUS "fuzz_driver repro, thread invariance and clean sweep hold")
