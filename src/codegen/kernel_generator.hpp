// OpenCL-C kernel source generator.
//
// The paper parameterizes one OpenCL kernel by radius and performance knobs
// and, because clamped boundary handling "could not be efficiently realized
// using unrolled loops and branches", uses a code generator that emits the
// boundary-condition select chains into the kernel source (Section III.B).
//
// This module reproduces that generator: given an AcceleratorConfig it
// emits a complete Intel-FPGA-OpenCL kernel file -- read kernel, an autorun
// array of PAR_TIME compute PEs connected by channels, write kernel, the
// eq.-(7) shift register, fully unrolled vector lanes, and one generated
// clamping select per (direction, distance, lane) neighbor access.
//
// The emitted source is what would be handed to `aoc` on a real system; the
// test suite checks its structural invariants (select counts as a function
// of radius, balanced delimiters, pragma placement, determinism).
#pragma once

#include <string>

#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

struct CodegenOptions {
  AcceleratorConfig config;
  bool emit_comments = true;  ///< keep explanatory comments in the source
};

/// Full kernel file for the configuration (star stencil; coefficients as
/// overridable COEF_* macros, as the paper's generator produces).
std::string generate_kernel_source(const CodegenOptions& options);

/// Full kernel file for an arbitrary tap set (box stencils, custom
/// shapes): coefficients are baked in as literals, each tap gets its own
/// generated per-axis clamping select chain, and the stage lag follows the
/// tap set's forward reach. Clamp tap sets only: any other boundary
/// condition throws ConfigError.
std::string generate_tap_kernel_source(const TapSet& taps,
                                       const CodegenOptions& options);

/// Just the boundary-handled accumulation statements for one lane
/// (exposed for unit tests): one `+=` with a clamping select chain per
/// (direction, distance) neighbor.
std::string generate_lane_body(const AcceleratorConfig& cfg, int lane);

/// Structural metrics of generated source, for validation.
struct SourceMetrics {
  std::int64_t lines = 0;
  std::int64_t selects = 0;          ///< ternary operators emitted
  std::int64_t accumulations = 0;    ///< `acc +=` statements
  std::int64_t unroll_pragmas = 0;
  bool balanced = false;             ///< (), {}, [] all balanced
};

SourceMetrics analyze_source(const std::string& source);

}  // namespace fpga_stencil
