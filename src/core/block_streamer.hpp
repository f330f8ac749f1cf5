// The per-block streaming core: read kernel -> compute -> write kernel
// for one overlapped block, driven by the collapsed global vector index.
//
// One executor streams blocks: run_block_parallel, which the synchronous
// simulator runs at one worker on the calling thread and the
// block-parallel backend runs on a pool. Every block of
// every backend goes through stream_block, so their outputs are
// bit-exact with each other by construction, not by coincidence.
//
// stream_block is a dispatcher with one rule, runs_on_interpreter: when
// cfg.use_specialized_kernels (the default) is set, the block runs on the
// vectorized runtime-tap array kernel (src/kernels), whatever its tap
// order, radius, parvec or boundary condition; otherwise it runs on the
// scalar interpreter, a chain of `partime` ProcessingElements. The two
// paths are bit-exact, so every backend (sync, block-parallel,
// resilient, engine) gets the speedup without a semantic change.
//
// A call touches only its arguments. On the interpreter the PE chain and
// the lane buffers `va`/`vb` (each cfg.parvec floats) must be private to
// the caller (thread); on the array kernel they are unused and may be
// empty. `in`/`out` may be shared across concurrent calls -- reads are
// unrestricted and each block writes only its own disjoint compute
// region. (The array kernel additionally uses a thread-local scratch slab
// internal to src/kernels.)
//
// Cancellation: a non-null `cancel` token is checked every few hundred
// vectors (interpreter) / every streamed plane (array kernel); a tripped
// token aborts the block by throwing CancelledError /
// DeadlineExceededError. The block's partial writes land only in `out`
// (the pass's scratch side), which the caller discards on unwind, so the
// caller-visible grid is never left half-written.
#pragma once

#include <span>
#include <vector>

#include "common/cancellation.hpp"
#include "core/stencil_accelerator.hpp"
#include "pipeline/processing_element.hpp"

namespace fpga_stencil {

/// True when blocks under `cfg` run on the scalar interpreter, and so
/// need a PE chain and lane buffers: only when the array kernel is
/// switched off. The one dispatch rule, read by the block executor's worker
/// setup and by stream_block.
[[nodiscard]] inline bool runs_on_interpreter(const AcceleratorConfig& cfg) {
  return !cfg.use_specialized_kernels;
}

/// Streams one 2D block (1.5D blocking: x blocked, y streamed) of `taps`
/// for a pass of `steps <= partime` time steps, retiring valid cells of
/// the block's compute region into `out`. `pes`, `va` and `vb` are read
/// only when runs_on_interpreter(plan.config).
void stream_block(const TapSet& taps, std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid2D<float>& in, Grid2D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr);

/// Streams one 3D block (2.5D blocking: x/y blocked, z streamed).
void stream_block(const TapSet& taps, std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid3D<float>& in, Grid3D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr);

}  // namespace fpga_stencil
