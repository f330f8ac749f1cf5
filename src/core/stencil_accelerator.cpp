#include "core/stencil_accelerator.hpp"

#include "core/block_parallel_accelerator.hpp"

namespace fpga_stencil {
namespace {

/// The sync simulator's options: the block executor at one worker, so the
/// calling thread streams every block and no thread is spawned.
RunOptions one_worker(std::vector<float>* scratch,
                      const CancellationToken* cancel) {
  RunOptions opts;
  opts.workers = 1;
  opts.scratch = scratch;
  if (cancel) opts.cancel = *cancel;
  return opts;
}

}  // namespace

StencilAccelerator::StencilAccelerator(const TapSet& taps,
                                       const AcceleratorConfig& cfg)
    : taps_(taps), cfg_(resolve_stage_lag(taps, cfg)) {}

StencilAccelerator::StencilAccelerator(const StarStencil& stencil,
                                       const AcceleratorConfig& cfg)
    : StencilAccelerator(stencil.to_taps(), cfg) {
  FPGASTENCIL_EXPECT(
      stencil.dims() == cfg.dims && stencil.radius() == cfg.radius,
      "stencil and configuration disagree on dims/radius");
}

RunStats StencilAccelerator::run(Grid2D<float>& grid, int iterations,
                                 std::vector<float>* scratch,
                                 const CancellationToken* cancel) {
  return run_block_parallel(taps_, cfg_, grid, iterations,
                            one_worker(scratch, cancel));
}

RunStats StencilAccelerator::run(Grid3D<float>& grid, int iterations,
                                 std::vector<float>* scratch,
                                 const CancellationToken* cancel) {
  return run_block_parallel(taps_, cfg_, grid, iterations,
                            one_worker(scratch, cancel));
}

}  // namespace fpga_stencil
