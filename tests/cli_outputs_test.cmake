# Runs every binary that takes --trace-out / --metrics-out with both
# flags and fails unless it wrote both files, non-empty; then checks
# that bench_serve serves with the engine --executor names.
#
#   cmake -DBENCH_SERVE=<path> -DQUICKSTART=<path> -DDESIGN_EXPLORER=<path>
#         -DOUT_DIR=<scratch dir> -P cli_outputs_test.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs the command in ARGN inside OUT_DIR; fails the test on a non-zero
# exit and hands stdout back in `out_var`.
function(run_in_out_dir out_var)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${OUT_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited with ${rc}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(check_outputs name)
  set(trace "${OUT_DIR}/${name}.trace.json")
  set(metrics "${OUT_DIR}/${name}.metrics.jsonl")
  run_in_out_dir(out ${ARGN} "--trace-out=${trace}" "--metrics-out=${metrics}")
  foreach(file IN ITEMS "${trace}" "${metrics}")
    if(NOT EXISTS "${file}")
      message(FATAL_ERROR "${name} did not write ${file}")
    endif()
    file(SIZE "${file}" size)
    if(size EQUAL 0)
      message(FATAL_ERROR "${name} wrote an empty ${file}")
    endif()
  endforeach()
  message(STATUS "${name}: trace and metrics written")
endfunction()

check_outputs(bench_serve "${BENCH_SERVE}" --clips=8 --replicas=1
              "--json-out=${OUT_DIR}/BENCH_serve.json")
check_outputs(quickstart "${QUICKSTART}")
check_outputs(design_explorer "${DESIGN_EXPLORER}")

run_in_out_dir(out "${BENCH_SERVE}" --clips=8 --replicas=1 --executor=sim
               "--json-out=${OUT_DIR}/BENCH_serve_sim.json")
string(FIND "${out}" "(executor: sim;" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "bench_serve --executor=sim did not serve with the "
                      "simulator:\n${out}")
endif()
message(STATUS "bench_serve: --executor=sim honoured")
