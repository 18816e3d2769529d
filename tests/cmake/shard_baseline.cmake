# bench/sharded_rkv must reproduce the checked-in BENCH_shard.json: the
# run it records (seed, duration, groups) yields the same engine event
# count and the same chaos, results and floors digests.
#
#   cmake -DSHARDED_RKV=<path> -DBASELINE=<BENCH_shard.json> -DOUT=<json>
#         -P shard_baseline.cmake
file(READ "${BASELINE}" want)
string(JSON seed GET "${want}" seed)
string(JSON duration GET "${want}" duration_s)
string(JSON groups GET "${want}" groups)
file(REMOVE "${OUT}")
execute_process(COMMAND ${SHARDED_RKV} --seed=${seed} --duration-s=${duration}
                        --groups=${groups} --json-out=${OUT}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "sharded_rkv exited ${rc} without writing ${OUT}")
endif()
file(READ "${OUT}" got)
foreach(path "events" "digests;chaos" "digests;results" "digests;floors")
  string(JSON w GET "${want}" ${path})
  string(JSON g GET "${got}" ${path})
  if(NOT g STREQUAL w)
    string(REPLACE ";" "." name "${path}")
    message(FATAL_ERROR "sharded_rkv ${name} = ${g}; BENCH_shard.json has ${w}")
  endif()
endforeach()
