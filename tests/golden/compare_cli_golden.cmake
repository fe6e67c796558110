# Byte-compare the guarded adaptive `mulink detect` path with its checked-in
# golden files. Usage:
#   cmake -DMULINK=<exe> -DWORKDIR=<dir> -DGOLDEN=<file> -DACTUAL=<file>
#         -DGOLDEN_SCHEMES=<file> -DACTUAL_SCHEMES=<file>
#         -P compare_cli_golden.cmake
# Simulates a clean empty calibration capture and two faulty sessions with
# fixed seeds (a person behind NIC corruption and a dead RX chain, and an
# empty room behind corruption alone, so the calibration ladder collects
# quiet windows), then appends the stdout of
# `mulink detect --guard --adaptive --guard-json` on each session to ACTUAL.
# ACTUAL_SCHEMES gets the same command under every --scheme against a calm
# calibration capture, on the dead-chain person session (degraded windows)
# and on a long session of a person standing still behind corruption: the
# ladder reads that person as drift and swaps the profile at least once per
# scheme, so the baseline's stale-distance path and every scheme's staged
# rescoring run. --metrics-json stays out: its latencies are not
# deterministic. The actual output is left in ACTUAL / ACTUAL_SCHEMES, so a
# failure can be diffed by hand.
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_mulink)
  execute_process(COMMAND "${MULINK}" ${ARGN}
                  WORKING_DIRECTORY "${WORKDIR}"
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mulink ${ARGN} exited with ${rc}: ${stderr}")
  endif()
  set(stdout "${stdout}" PARENT_SCOPE)
endfunction()

run_mulink(simulate --scenario classroom --packets 500 --seed 11
           --out empty.mlnk)
run_mulink(simulate --scenario classroom --packets 500 --human 3.0,4.5
           --seed 12 --fault-corrupt 0.02 --fault-dead-antenna 2
           --fault-seed 13 --out person.mlnk)
run_mulink(simulate --scenario classroom --packets 1500 --seed 12
           --fault-corrupt 0.02 --fault-seed 13 --out quiet.mlnk)

run_mulink(simulate --scenario classroom --packets 500 --seed 11 --calm
           --out empty_calm.mlnk)
run_mulink(simulate --scenario classroom --packets 2000 --human 3.0,4.5
           --seed 12 --fault-corrupt 0.02 --fault-seed 13 --out still.mlnk)

file(WRITE "${ACTUAL}" "")
foreach(session person quiet)
  run_mulink(detect --calibration empty.mlnk --session ${session}.mlnk
             --guard --adaptive --guard-json)
  file(APPEND "${ACTUAL}" "${stdout}")
endforeach()

file(WRITE "${ACTUAL_SCHEMES}" "")
foreach(scheme baseline subcarrier combined variance)
  foreach(session person still)
    run_mulink(detect --calibration empty_calm.mlnk --session ${session}.mlnk
               --scheme ${scheme} --guard --adaptive --guard-json)
    file(APPEND "${ACTUAL_SCHEMES}" "${stdout}")
  endforeach()
endforeach()

set(failed "")
foreach(pair "${ACTUAL};${GOLDEN}" "${ACTUAL_SCHEMES};${GOLDEN_SCHEMES}")
  list(GET pair 0 actual)
  list(GET pair 1 golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}"
                          "${golden}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    string(APPEND failed "\n  ${golden} (actual output: ${actual})")
  endif()
endforeach()
if(NOT failed STREQUAL "")
  message(FATAL_ERROR "mulink detect output differs from:${failed}")
endif()
