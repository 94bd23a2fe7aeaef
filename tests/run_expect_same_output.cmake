# Parity guard for the request core both tools share (core::Session):
# `susc FILE` and `susd --no-index --warm FILE` must print the same bytes
# and exit with the same code. susc's verify scans the repository, so the
# daemon runs with its ServiceIndex off (the index changes the "bindings
# tried" count, never a verdict).
#
# Usage: cmake -DSUSC=<susc> -DSUSD=<susd> -DINPUT=<file.sus>
#              -P run_expect_same_output.cmake
execute_process(
  COMMAND ${SUSC} ${INPUT}
  OUTPUT_VARIABLE SUSC_OUT
  ERROR_VARIABLE SUSC_ERR
  RESULT_VARIABLE SUSC_CODE)
execute_process(
  COMMAND ${SUSD} --no-index --warm ${INPUT}
  OUTPUT_VARIABLE SUSD_OUT
  ERROR_VARIABLE SUSD_ERR
  RESULT_VARIABLE SUSD_CODE)
string(FIND "${SUSC_OUT}" "== client" POS)
if(POS EQUAL -1)
  message(FATAL_ERROR "susc printed no client report (exit '${SUSC_CODE}')\n"
          "stdout:\n${SUSC_OUT}\nstderr:\n${SUSC_ERR}")
endif()
if(NOT SUSC_CODE STREQUAL SUSD_CODE)
  message(FATAL_ERROR "exit codes differ: susc '${SUSC_CODE}', "
          "susd '${SUSD_CODE}'\nsusd stderr:\n${SUSD_ERR}")
endif()
if(NOT SUSC_OUT STREQUAL SUSD_OUT)
  message(FATAL_ERROR "stdout differs\n--- susc:\n${SUSC_OUT}\n"
          "--- susd --no-index --warm:\n${SUSD_OUT}")
endif()
