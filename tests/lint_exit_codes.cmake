# Assert the `pudhammer lint` exit statuses: 2 for a malformed
# invocation, 1 for error-severity findings, 0 for a clean program.
#
#   cmake -DPUDHAMMER=<exe> -P lint_exit_codes.cmake
foreach(case
        "2|--program=nope"
        "2|--mitigations=bogus"
        "2|--mitigations="
        "1|--program=demo-broken"
        "0|--program=rh")
    string(REPLACE "|" ";" case "${case}")
    list(GET case 0 want)
    list(GET case 1 arg)
    execute_process(COMMAND ${PUDHAMMER} lint ${arg}
                    OUTPUT_QUIET ERROR_QUIET
                    RESULT_VARIABLE rc)
    if(NOT rc STREQUAL want)
        message(FATAL_ERROR "pudhammer lint ${arg}: exit ${rc}, "
                            "expected ${want}")
    endif()
endforeach()
