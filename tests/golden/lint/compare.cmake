# Run one `pudhammer lint` invocation and compare its stdout byte for
# byte with a recorded golden file:
#
#   cmake -DPUDHAMMER=<exe> "-DARGS=<lint args>" -DGOLDEN=<file>
#         -DOUT=<file> -P compare.cmake
#
# The actual output stays in OUT (CI uploads it).  After an intended
# output change, copy OUT over GOLDEN.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PUDHAMMER} lint ${args}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
# lint exits 1 when a program has error-severity findings (demo-broken
# does by design); anything else is a crash or a usage error.
if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "pudhammer lint ${ARGS} failed: ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "pudhammer lint ${ARGS}: output ${OUT} differs "
                        "from golden ${GOLDEN}")
endif()
