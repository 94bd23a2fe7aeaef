# Golden-output guard for a susc invocation: stdout and the exit code must
# match the checked-in expectation byte for byte. With `--run --trace` the
# output is the Interpreter's schedule, so any change to the monitor's
# verdicts (a step wrongly blocked or admitted) shows up here as a diff;
# with `--explore` it is the Explorer's state count and verdicts. With
# GOLDEN_ERR, stderr is pinned the same way (the front end's diagnostics).
#
# Usage: cmake -DSUSC=<susc> "-DARGS=<arg;arg;...>" -DINPUT=<file.sus>
#              -DGOLDEN=<expected stdout> [-DGOLDEN_ERR=<expected stderr>]
#              -DEXPECT_CODE=<exit code> -P run_expect_golden.cmake
execute_process(
  COMMAND ${SUSC} ${ARGS} ${INPUT}
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE CODE)
if(NOT CODE STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "expected exit code '${EXPECT_CODE}', got '${CODE}'\n"
          "stderr:\n${ERR}")
endif()
file(READ ${GOLDEN} WANT)
if(NOT OUT STREQUAL WANT)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}\n--- got:\n${OUT}\n"
          "--- want:\n${WANT}")
endif()
if(DEFINED GOLDEN_ERR)
  file(READ ${GOLDEN_ERR} WANT_ERR)
  if(NOT ERR STREQUAL WANT_ERR)
    message(FATAL_ERROR "stderr differs from ${GOLDEN_ERR}\n--- got:\n"
            "${ERR}\n--- want:\n${WANT_ERR}")
  endif()
endif()
