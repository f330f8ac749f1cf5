#include "core/stencil_accelerator.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/stopwatch.hpp"
#include "core/block_streamer.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {

StencilAccelerator::StencilAccelerator(const TapSet& taps,
                                       const AcceleratorConfig& cfg)
    : taps_(taps), cfg_(resolve_stage_lag(taps, cfg)) {
  FPGASTENCIL_EXPECT(taps.dims() == cfg_.dims && taps.radius() <= cfg_.radius,
                     "tap set and configuration disagree on dims/radius");
  pes_.reserve(static_cast<std::size_t>(cfg_.partime));
  for (int k = 0; k < cfg_.partime; ++k) {
    pes_.emplace_back(taps_, cfg_, k);
  }
  vec_a_.resize(static_cast<std::size_t>(cfg_.parvec));
  vec_b_.resize(static_cast<std::size_t>(cfg_.parvec));
}

StencilAccelerator::StencilAccelerator(const StarStencil& stencil,
                                       const AcceleratorConfig& cfg)
    : StencilAccelerator(stencil.to_taps(), cfg) {
  FPGASTENCIL_EXPECT(
      stencil.dims() == cfg.dims && stencil.radius() == cfg.radius,
      "stencil and configuration disagree on dims/radius");
}

RunStats StencilAccelerator::run(Grid2D<float>& grid, int iterations,
                                 std::vector<float>* scratch_storage,
                                 const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(cfg_.dims == 2, "2D run on a 3D configuration");
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  RunStats stats;
  Grid2D<float> scratch =
      scratch_storage
          ? Grid2D<float>(grid.nx(), grid.ny(), std::move(*scratch_storage))
          : Grid2D<float>(grid.nx(), grid.ny());
  int remaining = iterations;
  while (remaining > 0) {
    const int steps = std::min(remaining, cfg_.partime);
    const std::int64_t written_before = stats.cells_written;
    Tracer::Span span;
    if (cfg_.telemetry) span = cfg_.telemetry->tracer().span("sync_pass", 0, "sync");
    const Stopwatch pass_clock;
    run_pass(grid, scratch, steps, stats, cancel);
    if (cfg_.telemetry) {
      span.end();
      record_pass_metrics(*cfg_.telemetry, "sync",
                          stats.cells_written - written_before,
                          pass_clock.nanoseconds());
    }
    std::swap(grid, scratch);
    remaining -= steps;
    stats.time_steps += steps;
    ++stats.passes;
  }
  if (scratch_storage) *scratch_storage = scratch.release_storage();
  return stats;
}

RunStats StencilAccelerator::run(Grid3D<float>& grid, int iterations,
                                 std::vector<float>* scratch_storage,
                                 const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(cfg_.dims == 3, "3D run on a 2D configuration");
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  RunStats stats;
  Grid3D<float> scratch =
      scratch_storage
          ? Grid3D<float>(grid.nx(), grid.ny(), grid.nz(),
                          std::move(*scratch_storage))
          : Grid3D<float>(grid.nx(), grid.ny(), grid.nz());
  int remaining = iterations;
  while (remaining > 0) {
    const int steps = std::min(remaining, cfg_.partime);
    const std::int64_t written_before = stats.cells_written;
    Tracer::Span span;
    if (cfg_.telemetry) span = cfg_.telemetry->tracer().span("sync_pass", 0, "sync");
    const Stopwatch pass_clock;
    run_pass(grid, scratch, steps, stats, cancel);
    if (cfg_.telemetry) {
      span.end();
      record_pass_metrics(*cfg_.telemetry, "sync",
                          stats.cells_written - written_before,
                          pass_clock.nanoseconds());
    }
    std::swap(grid, scratch);
    remaining -= steps;
    stats.time_steps += steps;
    ++stats.passes;
  }
  if (scratch_storage) *scratch_storage = scratch.release_storage();
  return stats;
}

void StencilAccelerator::run_pass(const Grid2D<float>& in, Grid2D<float>& out,
                                  int steps, RunStats& stats,
                                  const CancellationToken* cancel) {
  const BlockingPlan plan = make_blocking_plan(cfg_, in.nx(), in.ny());
  for (std::int64_t b = 0; b < plan.total_blocks(); ++b) {
    stream_block(pes_, plan, block_extent(plan, b), in, out, steps,
                 std::span<float>(vec_a_), std::span<float>(vec_b_), stats,
                 cancel);
  }
}

void StencilAccelerator::run_pass(const Grid3D<float>& in, Grid3D<float>& out,
                                  int steps, RunStats& stats,
                                  const CancellationToken* cancel) {
  const BlockingPlan plan = make_blocking_plan(cfg_, in.nx(), in.ny(), in.nz());
  for (std::int64_t b = 0; b < plan.total_blocks(); ++b) {
    stream_block(pes_, plan, block_extent(plan, b), in, out, steps,
                 std::span<float>(vec_a_), std::span<float>(vec_b_), stats,
                 cancel);
  }
}

}  // namespace fpga_stencil
