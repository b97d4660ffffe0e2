# Bad numeric options must be usage errors (the `sos_args_smoke` ctest,
# label `report`): each invocation below has to exit 2 with an
# "error:" line on stderr. Every value is rejected while the command
# line is parsed, before any command runs or any thread starts.
#
# Usage: cmake -DSOS_BIN=<path> -P args_smoke.cmake
if(NOT DEFINED SOS_BIN)
  message(FATAL_ERROR "usage: cmake -DSOS_BIN=<path> -P args_smoke.cmake")
endif()

set(cases
    "run --shards abc"
    "run --shards 0"
    "run --shards 4294967297"
    "run --shards 2x"
    "run --shards -1"
    "survey --jobs 4097"
    "survey --jobs 18446744073709551616"
    "serve --cycles 3 --shards 1e3"
    "serve --floor 0.1junk"
    "run --timeout nan")
foreach(shown IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${shown}")
  execute_process(
    COMMAND ${SOS_BIN} ${argv}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "sos ${shown}: exit '${rc}', want 2\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "error: --")
    message(FATAL_ERROR "sos ${shown}: no usage error on stderr:\n${err}")
  endif()
endforeach()
