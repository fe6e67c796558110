# The benchmark program, declared inside the mulink project: included right
# after its project() call (CMAKE_PROJECT_mulink_INCLUDE, set by
# perfbench/CMakeLists.txt). The library targets are linked by name and
# resolved when the project is generated, after src/ has declared them.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
add_executable(mulink_perfbench
  ${PERFBENCH_DIR}/src/main.cpp
  ${PERFBENCH_DIR}/src/fleet.cpp
  ${PERFBENCH_DIR}/src/probes.cpp
  ${PERFBENCH_DIR}/src/alloc_counter.cpp
  ${PERFBENCH_DIR}/src/spans.cpp)
target_link_libraries(mulink_perfbench PRIVATE mulink_serve mulink_experiments)
# Declared before the project sets CMAKE_CXX_STANDARD, so state it here.
target_compile_features(mulink_perfbench PRIVATE cxx_std_20)
set_target_properties(mulink_perfbench PROPERTIES CXX_EXTENSIONS OFF)
target_compile_options(mulink_perfbench PRIVATE -Wall -Wextra -Wpedantic)
target_compile_definitions(mulink_perfbench PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
set_target_properties(mulink_perfbench PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}")
