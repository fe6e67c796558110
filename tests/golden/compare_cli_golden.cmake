# Byte-compare the guarded adaptive `mulink detect` path with its checked-in
# golden file. Usage:
#   cmake -DMULINK=<exe> -DWORKDIR=<dir> -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_cli_golden.cmake
# Simulates a clean empty calibration capture and two faulty sessions with
# fixed seeds (a person behind NIC corruption and a dead RX chain, and an
# empty room behind corruption alone, so the calibration ladder collects
# quiet windows), then appends the stdout of
# `mulink detect --guard --adaptive --guard-json` on each session to ACTUAL.
# --metrics-json stays out: its latencies are not deterministic. The actual
# output is left in ACTUAL, so a failure can be diffed by hand.
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

file(WRITE "${ACTUAL}" "")
foreach(session person quiet)
  run_mulink(detect --calibration empty.mlnk --session ${session}.mlnk
             --guard --adaptive --guard-json)
  file(APPEND "${ACTUAL}" "${stdout}")
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "mulink detect output differs from ${GOLDEN}; "
                      "actual output: ${ACTUAL}")
endif()
