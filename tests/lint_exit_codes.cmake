# Assert the `pudhammer` exit statuses: 2 for a malformed invocation
# of any subcommand, and for `lint` 1 for error-severity findings, 0
# for a clean program.  Every usage error is caught before any work.
#
#   cmake -DPUDHAMMER=<exe> -P lint_exit_codes.cmake
foreach(case
        "2|lint --program=nope"
        "2|lint --mitigations=bogus"
        "2|lint --mitigations="
        "1|lint --program=demo-broken"
        "0|lint --program=rh"
        "2|hcfirst --technique=bogus"
        "2|hcfirst --pattern=bogus"
        "2|popsweep --technique=bogus"
        "2|attack --technique=bogus"
        "2|diffcheck --mitigation=bogus"
        "2|bogus")
    string(REPLACE "|" ";" case "${case}")
    list(GET case 0 want)
    list(GET case 1 cmd)
    separate_arguments(cmd UNIX_COMMAND "${cmd}")
    execute_process(COMMAND ${PUDHAMMER} ${cmd}
                    OUTPUT_QUIET ERROR_QUIET
                    RESULT_VARIABLE rc)
    if(NOT rc STREQUAL want)
        message(FATAL_ERROR "pudhammer ${cmd}: exit ${rc}, "
                            "expected ${want}")
    endif()
endforeach()
