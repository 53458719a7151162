# Pins dbs3_tidy's exit contract, which the dbs3_tidy_src_scan gate relies
# on: a dbs3_tidy that always exited 0 would pass that gate on any tree.
#
#   cmake -DTIDY=<dbs3_tidy> -DFIXTURES=<fixtures dir> -DCASE=<case> \
#         -P cli_exit_codes.cmake
#
# CASE is one of:
#   findings       exit 1 on every *_violation.cc fixture
#   clean          exit 0 on every *_clean.cc fixture
#   unknown_check  exit 2 when --checks names a check that does not exist
#   missing_path   exit 2 when a path cannot be read

set(failures "")

# Runs dbs3_tidy with ARGN and records a failure unless it exits `code`.
# The captured stderr lands in `tidy_stderr` for message checks.
function(expect_exit code)
  execute_process(COMMAND "${TIDY}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    set(failures "${failures}dbs3_tidy ${ARGN}: exit ${rc}, expected ${code}\n"
        PARENT_SCOPE)
  endif()
  set(tidy_stderr "${err}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "findings" OR CASE STREQUAL "clean")
  if(CASE STREQUAL "findings")
    file(GLOB fixtures "${FIXTURES}/*_violation.cc")
    set(code 1)
  else()
    file(GLOB fixtures "${FIXTURES}/*_clean.cc")
    set(code 0)
  endif()
  list(LENGTH fixtures count)
  if(count LESS 5)
    message(FATAL_ERROR "expected 5 ${CASE} fixtures under ${FIXTURES}, "
                        "found ${count}")
  endif()
  foreach(fixture IN LISTS fixtures)
    expect_exit(${code} "${fixture}")
  endforeach()
elseif(CASE STREQUAL "unknown_check")
  # The misspelled name alone used to run zero checks and exit 0; next to a
  # valid name it used to run only the valid one.
  foreach(checks "dbs3-quota-pairng" "dbs3-quota-pairing,dbs3-quota-pairng")
    expect_exit(2 "--checks=${checks}"
                "${FIXTURES}/quota_pairing_violation.cc")
    if(NOT tidy_stderr MATCHES "unknown check 'dbs3-quota-pairng'")
      string(APPEND failures "--checks=${checks}: no 'unknown check' "
             "message in: ${tidy_stderr}\n")
    endif()
  endforeach()
elseif(CASE STREQUAL "missing_path")
  expect_exit(2 "${FIXTURES}/no_such_fixture.cc")
  expect_exit(2 "${FIXTURES}/quota_pairing_clean.cc"
              "${FIXTURES}/no_such_fixture.cc")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

if(failures)
  message(FATAL_ERROR "${failures}")
endif()
