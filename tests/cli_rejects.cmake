# Run a command and pass only if it exits 1 with stderr matching EXPECT.
#
#   cmake -DEXPECT=<regex> -P cli_rejects.cmake -- <command> [args...]
#
# Used by the hdpat_cli malformed-input tests: a bad numeric flag must
# fail with a message, never run with a default or die on a signal.

set(command)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()

execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got '${status}'\n"
                        "stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${stderr}")
endif()
