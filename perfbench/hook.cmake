# Loaded as CMAKE_PROJECT_INCLUDE at the end of the repository's root
# project() call (perfbench/run.py passes it at configure time). The
# benchmark target is defined only once the root CMakeLists.txt has
# finished, so it inherits every root compile option and the benchmark
# measures the libraries exactly as a stock build compiles them.
# Deferred arguments expand when the call runs, hence the variable.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/perfbench.cmake")
