# Runs the command given after `--` and fails unless it exits with
# EXPECT_CODE and its combined stdout/stderr matches EXPECT_REGEX. ctest's
# own WILL_FAIL cannot be combined with PASS_REGULAR_EXPRESSION (a matching
# regex turns the expected failure into a test failure), hence this wrapper.
#
#   cmake -DEXPECT_CODE=2 -DEXPECT_REGEX=<regex> -P expect_exit.cmake -- <cmd> <args...>
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE code OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "expected exit code ${EXPECT_CODE}, got ${code}")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'")
endif()
