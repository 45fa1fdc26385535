# Builds the pruned default session at HWP_THREADS=1, 2 and 4 and fails
# unless the three saved checkpoints are byte-identical: training must
# give the same model for any thread count.
#
#   cmake -DSESSION_CHECKPOINT=<path> -DSEED=<n> -DOUT_DIR=<scratch dir>
#         -P thread_count_checkpoint_test.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(digests "")
foreach(threads IN ITEMS 1 2 4)
  set(checkpoint "${OUT_DIR}/seed${SEED}_threads${threads}.ckpt")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env HWP_THREADS=${threads}
            "${SESSION_CHECKPOINT}" ${SEED} "${checkpoint}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "HWP_THREADS=${threads} session_checkpoint exited "
                        "with ${rc}\n${out}\n${err}")
  endif()
  file(MD5 "${checkpoint}" md5)
  string(STRIP "${out}" out)
  message(STATUS "HWP_THREADS=${threads}: md5 ${md5} (${out})")
  list(APPEND digests "${md5}")
endforeach()

list(REMOVE_DUPLICATES digests)
list(LENGTH digests distinct)
if(NOT distinct EQUAL 1)
  message(FATAL_ERROR "seed ${SEED}: checkpoints differ across thread "
                      "counts: ${digests}")
endif()
message(STATUS "seed ${SEED}: one checkpoint at 1, 2 and 4 threads")
