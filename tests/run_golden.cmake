# One golden check, registered by ioat_golden (bench/CMakeLists.txt):
#   cmake -DCMD=<bench;flags...> -DEXIT=<status> -DACTUAL=<file>
#         [-DEXPECTED=<file>] -P run_golden.cmake
# CMD, run with --bench-json /dev/null so it writes no file, must exit
# EXIT and, given EXPECTED, print exactly that file; GOLDEN_REGEN in
# the environment rewrites EXPECTED instead.  Stdout is left in ACTUAL
# only when the check fails.
execute_process(COMMAND ${CMD} --bench-json /dev/null
                OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "exit status ${rc}, expected ${EXIT}")
endif()
if(EXPECTED AND DEFINED ENV{GOLDEN_REGEN})
  configure_file("${ACTUAL}" "${EXPECTED}" COPYONLY)
elseif(EXPECTED)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${EXPECTED}" "${ACTUAL}" RESULT_VARIABLE differs)
  if(differs)
    execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
    message(FATAL_ERROR "stdout differs from ${EXPECTED}, kept in "
            "${ACTUAL}; after an intended change, regenerate with "
            "GOLDEN_REGEN=1 ctest -L golden")
  endif()
endif()
file(REMOVE "${ACTUAL}")
