# The repository benchmark binary, defined in the root directory scope
# through hook.cmake (not part of the stock build).
add_executable(perfbench
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/probes.cpp
  ${CMAKE_CURRENT_LIST_DIR}/span_log.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp
)
set_target_properties(perfbench PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
target_link_libraries(perfbench PRIVATE
  stencil_program stencil_engine stencil_core stencil_stencil stencil_grid
  stencil_telemetry stencil_common Threads::Threads)
