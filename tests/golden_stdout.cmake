# Golden figure stdout: each figure harness must print exactly the
# bytes whose sha256 is committed in golden/bench_stdout.sha256, one
# line per harness: "<sha256>  <binary>  <ops per GPM>".
#
# Check one harness (what the GoldenStdout.<binary> ctests run, each in
# its own working directory):
#
#   cmake -DGOLDEN=<bench_stdout.sha256> -DBINARY=<name> -DEXE=<path>
#         [-DINSTANCES=2] -P golden_stdout.cmake
#
# The harness runs as `EXE <ops>` with HDPAT_JOBS=2; on a mismatch the
# output is printed. INSTANCES=2 starts two copies at once in the same
# directory and checks both, so harnesses that round-trip their figure
# through files must not share paths between processes.
#
# Regenerate every line after an intended output change, from a build
# tree's bench binaries:
#
#   cmake -DGOLDEN=tests/golden/bench_stdout.sha256 \
#         -DBENCH_DIR=build/bench -DREGENERATE=ON \
#         -P tests/golden_stdout.cmake

set(ENV{HDPAT_JOBS} 2)

# The golden lines as parallel lists of binaries, ops and hashes.
file(STRINGS "${GOLDEN}" lines)
set(binaries)
set(ops_list)
set(hashes)
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+) +([A-Za-z0-9_]+) +([0-9]+)$")
        message(FATAL_ERROR "malformed line in ${GOLDEN}: '${line}'")
    endif()
    list(APPEND hashes ${CMAKE_MATCH_1})
    list(APPEND binaries ${CMAKE_MATCH_2})
    list(APPEND ops_list ${CMAKE_MATCH_3})
endforeach()

if(REGENERATE)
    file(REAL_PATH "${BENCH_DIR}" BENCH_DIR)
    set(out "")
    set(work "${BENCH_DIR}/golden-regenerate")
    foreach(binary ops IN ZIP_LISTS binaries ops_list)
        file(REMOVE_RECURSE "${work}")
        file(MAKE_DIRECTORY "${work}")
        execute_process(COMMAND "${BENCH_DIR}/${binary}" ${ops}
            WORKING_DIRECTORY "${work}"
            RESULT_VARIABLE status
            OUTPUT_VARIABLE stdout)
        if(NOT status STREQUAL "0")
            message(FATAL_ERROR "${binary} ${ops} exited '${status}'")
        endif()
        string(SHA256 hash "${stdout}")
        string(APPEND out "${hash}  ${binary}  ${ops}\n")
    endforeach()
    file(REMOVE_RECURSE "${work}")
    file(WRITE "${GOLDEN}" "${out}")
    return()
endif()

list(FIND binaries "${BINARY}" index)
if(index LESS 0)
    message(FATAL_ERROR "${BINARY} has no line in ${GOLDEN}")
endif()
list(GET ops_list ${index} ops)
list(GET hashes ${index} expected)

if(INSTANCES EQUAL 2)
    # Two single-instance checks, started together. The first one's
    # stdout feeds the second's stdin, which neither reads; both
    # report on stderr.
    set(check ${CMAKE_COMMAND} -DGOLDEN=${GOLDEN} -DBINARY=${BINARY}
        -DEXE=${EXE} -P ${CMAKE_CURRENT_LIST_FILE})
    execute_process(COMMAND ${check} COMMAND ${check}
        RESULTS_VARIABLE statuses
        ERROR_VARIABLE stderr)
    if(NOT statuses STREQUAL "0;0")
        message(FATAL_ERROR "concurrent ${BINARY} checks exited "
                            "'${statuses}':\n${stderr}")
    endif()
    return()
endif()

execute_process(COMMAND "${EXE}" ${ops}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${BINARY} ${ops} exited '${status}':\n"
                        "${stderr}\nstdout:\n${stdout}")
endif()
string(SHA256 actual "${stdout}")
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${BINARY} ${ops} stdout sha256 ${actual}, "
                        "expected ${expected}:\n${stdout}")
endif()
