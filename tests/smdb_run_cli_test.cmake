# smdb_run's flag parsing, driven through the binary itself:
#  * --protocol names the protocol only: the run knobs given before it keep
#    their values, so both flag orders write the same --stats-json;
#  * --crash takes a comma-separated node list;
#  * a malformed or out-of-range number is a usage error (exit 1), never
#    an abort.
#
# Usage: cmake -DSMDB_RUN=<smdb_run> -DWORK_DIR=<dir> -P smdb_run_cli_test.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_smdb out_var)
  execute_process(COMMAND "${SMDB_RUN}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "smdb_run ${ARGN}: exit '${rc}'\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# 1. Flag order: knobs before --protocol must survive it.
set(knobs --recovery-streams=4 --on-demand-recovery --group-commit)
set(workload --nodes=4 --txns=30 --steal=0.02 --crash=200:1)
run_smdb(out ${knobs} --protocol=volatile-redoall ${workload}
         --stats-json=${WORK_DIR}/knobs_first.json)
run_smdb(out --protocol=volatile-redoall ${knobs} ${workload}
         --stats-json=${WORK_DIR}/protocol_first.json)
file(READ "${WORK_DIR}/knobs_first.json" knobs_first)
file(READ "${WORK_DIR}/protocol_first.json" protocol_first)
if(NOT knobs_first STREQUAL protocol_first)
  message(FATAL_ERROR
          "--protocol reset the knobs given before it: "
          "${WORK_DIR}/knobs_first.json differs from protocol_first.json")
endif()

# 2. A multi-node crash on the command line.
run_smdb(out --nodes=4 --txns=30 --crash=200:2,3)
if(NOT out MATCHES "crashed=\\[2,3\\]")
  message(FATAL_ERROR "--crash=200:2,3 did not crash nodes 2 and 3:\n${out}")
endif()

# 3. Malformed or out-of-range numbers are usage errors. ('|' separates
# the flags of one command.)
foreach(bad --crash=200:2x --nodes=abc --nodes=0 --nodes=4|--crash=10:9)
  string(REPLACE "|" ";" args "${bad}")
  execute_process(COMMAND "${SMDB_RUN}" ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "smdb_run ${args}: expected usage error 1, got '${rc}'")
  endif()
endforeach()
