# Run one invocation and compare its stdout byte for byte with a
# recorded golden file:
#
#   cmake -DEXE=<exe> "-DARGS=<command and options>"
#         -DGOLDEN=<file> -DOUT=<file> -P compare.cmake
#
# The actual output stays in OUT (CI uploads it).  After an intended
# output change, copy OUT over GOLDEN.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
# Exit 1 reports findings: `pudhammer lint` on a program with
# error-severity findings (demo-broken by design), or a diffcheck
# disagreement, whose counts the comparison below shows.  Anything
# else is a crash or a usage error.
if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "${EXE} ${ARGS} failed: ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "${EXE} ${ARGS}: output ${OUT} differs "
                        "from golden ${GOLDEN}")
endif()
