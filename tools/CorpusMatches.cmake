# Regenerates the operator corpus with pinj-gen into WORK and requires
# every file it writes (the .pinj files and corpus.txt) to be
# byte-identical to its checked-in counterpart in KERNELS, so the
# checked-in corpus means exactly what the library builds.
#
# Expected -D variables: GEN, KERNELS, WORK.

foreach(_var GEN KERNELS WORK)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "CorpusMatches.cmake needs -D${_var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
execute_process(COMMAND ${GEN} ${WORK}
                OUTPUT_QUIET
                ERROR_VARIABLE _err
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "pinj-gen failed (${_rc}):\n${_err}")
endif()

file(GLOB _generated RELATIVE ${WORK} ${WORK}/*)
list(LENGTH _generated _count)
if(_count LESS 2)
  message(FATAL_ERROR "pinj-gen wrote ${_count} files into ${WORK}")
endif()
foreach(_file IN LISTS _generated)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK}/${_file} ${KERNELS}/${_file}
                  RESULT_VARIABLE _same)
  if(NOT _same EQUAL 0)
    message(FATAL_ERROR
            "${KERNELS}/${_file} differs from what pinj-gen writes; "
            "regenerate the corpus with pinj-gen")
  endif()
endforeach()
file(REMOVE_RECURSE ${WORK})
