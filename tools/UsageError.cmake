# Runs TOOL with one flag and requires the usage-error exit code 2 with
# MESSAGE on stderr. Guards against flags whose bad values silently
# fall back to a default instead of being refused.
#
# Expected -D variables: TOOL, FLAG, MESSAGE; optional INPUT (a trailing
# positional argument, so a tool that accepted the flag would go on to
# do real work and exit 0).

foreach(_var TOOL FLAG MESSAGE)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "UsageError.cmake needs -D${_var}=...")
  endif()
endforeach()

execute_process(COMMAND ${TOOL} ${FLAG} ${INPUT}
                OUTPUT_QUIET
                ERROR_VARIABLE _err
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${FLAG}: exit ${_rc}, expected 2:\n${_err}")
endif()
if(NOT _err MATCHES "${MESSAGE}")
  message(FATAL_ERROR
          "${TOOL} ${FLAG}: stderr lacks '${MESSAGE}':\n${_err}")
endif()
