# Regenerates the seed corpus and fails unless it matches the checked-in
# one file for file, byte for byte. The corpus holds envelopes of every
# report encoding, the compact payloads, a shard part file and a
# checkpoint file, so this pins each of those formats' bytes.
#
# Usage:
#   cmake -DSEEDGEN=<fuzz_seedgen> -DOUT=<scratch dir> -DCORPUS=<corpus>
#         -P compare_corpus.cmake

if(NOT DEFINED SEEDGEN OR NOT DEFINED OUT OR NOT DEFINED CORPUS)
  message(FATAL_ERROR "compare_corpus.cmake needs -DSEEDGEN, -DOUT and -DCORPUS")
endif()

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${SEEDGEN}" "${OUT}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fuzz_seedgen exited '${rc}'")
endif()

file(GLOB_RECURSE want RELATIVE "${CORPUS}" "${CORPUS}/*")
file(GLOB_RECURSE got RELATIVE "${OUT}" "${OUT}/*")
list(SORT want)
list(SORT got)
if(NOT want STREQUAL got)
  message(FATAL_ERROR "seedgen wrote\n  ${got}\nbut the corpus holds\n  ${want}")
endif()

set(mismatched "")
foreach(name IN LISTS want)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${CORPUS}/${name}" "${OUT}/${name}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    list(APPEND mismatched "${name}")
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "seedgen output differs from the corpus: ${mismatched}")
endif()
