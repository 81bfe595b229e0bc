# Runs one cbsim command line and checks what it did:
#
#   cmake -DEXPECT=<exit code> [-DSTDOUT_EQUALS=<file>]
#         [-DSTDOUT_VALIDATES=ON] [-DREPRO_EXPECT=<exit code>]
#         -P cli_check.cmake -- <cbsim> <command> <args...>
#
# EXPECT           the command's exit code.
# STDOUT_EQUALS    its standard output must equal this file byte for byte.
# STDOUT_VALIDATES its standard output, saved to a file, must pass
#                  `<cbsim> <command> --scenario-file <that file> --validate`.
# REPRO_EXPECT     the `repro:` line it prints must run as printed and exit
#                  with this code.

set(cmd)
set(seen_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator ON)
  endif()
endforeach()
list(GET cmd 0 cbsim)
list(GET cmd 1 command)

function(run_checked expect)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL expect)
    string(REPLACE ";" " " line "${ARGN}")
    message(FATAL_ERROR "${line}\nexited ${rc}, expected ${expect}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

run_checked(${EXPECT} ${cmd})

if(DEFINED STDOUT_EQUALS)
  file(READ "${STDOUT_EQUALS}" want)
  if(NOT out STREQUAL want)
    file(WRITE "${command}-stdout.txt" "${out}")
    message(FATAL_ERROR "stdout differs from ${STDOUT_EQUALS}; "
                        "see ${command}-stdout.txt")
  endif()
endif()

if(STDOUT_VALIDATES)
  set(saved "${CMAKE_CURRENT_BINARY_DIR}/cli-${command}-dump.json")
  file(WRITE "${saved}" "${out}")
  run_checked(0 ${cbsim} ${command} --scenario-file ${saved} --validate)
endif()

if(DEFINED REPRO_EXPECT)
  string(REGEX MATCH "\nrepro: ([^\n]*)" found "\n${out}")
  if(NOT found)
    message(FATAL_ERROR "no repro: line in stdout:\n${out}")
  endif()
  separate_arguments(repro UNIX_COMMAND "${CMAKE_MATCH_1}")
  run_checked(${REPRO_EXPECT} ${repro})
endif()
