# Runs a command and fails unless its exit code AND its stdout match —
# the CLI's printed estimates are part of its interface, so a smoke test
# that only checks "exit 0" cannot catch a refactor that moves a digit.
#
# Usage (golden mode):
#   cmake -DEXPECT=<code> -DGOLDEN=<file> [-DBINARY_DIR=<dir>]
#         [-DIGNORE=<regex>] "-DCMD=<prog;arg;arg...>" -P expect_output.cmake
#
#   The golden file holds the expected stdout followed by one final
#   "[exit <code>]" line. Occurrences of BINARY_DIR in stdout are
#   rewritten to "<bindir>" first, so goldens do not depend on where the
#   tree was built; lines matching IGNORE (scheduling-dependent counters)
#   are dropped from both sides. With the environment variable
#   HDLDP_RECORD_GOLDEN set, the file is (re)written instead of compared.
#
# Usage (twin mode):
#   cmake -DEXPECT=<code> "-DCMD=<prog;args...>" "-DTWIN=<prog;args...>"
#         -DMATCH=<regex> -P expect_output.cmake
#
#   Runs both commands; each must exit EXPECT, and the stdout lines
#   matching MATCH must be identical between the two.

if(NOT DEFINED EXPECT OR NOT DEFINED CMD)
  message(FATAL_ERROR "expect_output.cmake needs -DEXPECT=<code> and -DCMD=<prog;args>")
endif()

function(run_checked command out_var)
  execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}': ${command}\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Keeps the lines of `text` that match (KEEP) or do not match (DROP) `regex`.
function(filter_lines text mode regex out_var)
  string(REPLACE ";" "\\;" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(kept "")
  foreach(line IN LISTS lines)
    if(line MATCHES "${regex}")
      set(match TRUE)
    else()
      set(match FALSE)
    endif()
    if((mode STREQUAL "KEEP" AND match) OR (mode STREQUAL "DROP" AND NOT match))
      string(APPEND kept "${line}\n")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
endfunction()

run_checked("${CMD}" out)

if(DEFINED TWIN)
  run_checked("${TWIN}" twin_out)
  filter_lines("${out}" KEEP "${MATCH}" got)
  filter_lines("${twin_out}" KEEP "${MATCH}" want)
  if(got STREQUAL "")
    message(FATAL_ERROR "no line matches '${MATCH}': ${CMD}")
  endif()
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "twin outputs differ on '${MATCH}' lines\n"
                        "--- ${CMD}\n${got}--- ${TWIN}\n${want}")
  endif()
  return()
endif()

if(NOT DEFINED GOLDEN)
  message(FATAL_ERROR "expect_output.cmake needs -DGOLDEN=<file> or -DTWIN=<prog;args>")
endif()
if(DEFINED BINARY_DIR)
  string(REPLACE "${BINARY_DIR}" "<bindir>" out "${out}")
endif()
string(APPEND out "[exit ${EXPECT}]\n")
if(DEFINED ENV{HDLDP_RECORD_GOLDEN})
  file(WRITE "${GOLDEN}" "${out}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(DEFINED IGNORE)
  filter_lines("${out}" DROP "${IGNORE}" out)
  filter_lines("${want}" DROP "${IGNORE}" want)
endif()
if(NOT out STREQUAL want)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}\n"
                      "--- expected\n${want}--- actual\n${out}")
endif()
