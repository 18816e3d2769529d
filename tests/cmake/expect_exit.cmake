# Runs PROGRAM once per argument in RUNS (space-separated; each run gets
# one argument) and fails unless every run exits with WANT.
#
#   cmake -DPROGRAM=<path> -DWANT=<code> "-DRUNS=<arg> <arg> ..." -P expect_exit.cmake
separate_arguments(runs UNIX_COMMAND "${RUNS}")
foreach(arg IN LISTS runs)
  execute_process(COMMAND ${PROGRAM} ${arg}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL WANT)
    message(FATAL_ERROR "${PROGRAM} ${arg} exited ${rc}; want ${WANT}")
  endif()
endforeach()
