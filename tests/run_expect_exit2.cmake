# Asserts the usage-error contract: the command must exit with code 2
# exactly. ctest's WILL_FAIL accepts any failure, a crash included. With
# EXPECT set, stderr must also match that regular expression.
#
# Usage: cmake -DPROG=<binary> "-DARGS=arg;arg..." [-DEXPECT=<regex>]
#              -P run_expect_exit2.cmake
execute_process(
  COMMAND ${PROG} ${ARGS}
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 2)
  message(FATAL_ERROR "expected exit code 2 (usage error), got '${CODE}'\n"
          "stdout:\n${OUT}\nstderr:\n${ERR}")
endif()
if(DEFINED EXPECT AND NOT ERR MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${ERR}")
endif()
