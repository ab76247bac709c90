# Run a bench binary with an argument it does not declare and require
# the usage error: exit code 2, the usage block on stderr, and nothing
# on stdout (the bench must refuse before it simulates anything).
#
# Usage: cmake -DBENCH=<bench binary> -P expect_usage_error.cmake

execute_process(COMMAND ${BENCH} --no-such-flag
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${BENCH} --no-such-flag exited '${rc}', expected 2\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${BENCH}: no usage block on stderr:\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "${BENCH}: wrote to stdout before refusing:\n"
            "${out}")
endif()
