// The per-block streaming core: read kernel -> PE chain -> write kernel
// for one overlapped block, driven by the collapsed global vector index.
//
// This is the code that used to live inline in
// StencilAccelerator::run_pass. It is factored out because two executors
// stream blocks: the synchronous simulator (one block after another) and
// the block-parallel backend (blocks fanned out over a worker pool).
// Both call these functions, so their outputs are bit-exact with each
// other by construction, not by coincidence.
//
// stream_block is a dispatcher with one rule: when
// cfg.use_specialized_kernels (the default) is set, the block runs on the
// vectorized runtime-tap array kernel (src/kernels), whatever its tap
// order, radius, parvec or boundary condition; otherwise it runs on the
// scalar interpreter below. The two
// paths are bit-exact, so every backend (sync, block-parallel,
// resilient, engine) gets the speedup without a semantic change.
// stream_block_generic exposes the interpreter directly -- it is the
// semantic reference the kernel is tested against and the baseline the
// dispatch microbench measures.
//
// A call touches only its arguments: the PE chain and the lane buffers
// `va`/`vb` (each cfg.parvec floats) must be private to the caller
// (thread), while `in`/`out` may be shared across concurrent calls --
// reads are unrestricted and each block writes only its own disjoint
// compute region. (The array kernel additionally uses a thread-local
// scratch slab internal to src/kernels.)
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

namespace fpga_stencil {

/// Streams one 2D block (1.5D blocking: x blocked, y streamed) through
/// `pes` for a pass of `steps <= partime` time steps, retiring valid
/// cells of the block's compute region into `out`. Dispatches to the
/// array kernel unless cfg.use_specialized_kernels is off.
void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid2D<float>& in, Grid2D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr);

/// Streams one 3D block (2.5D blocking: x/y blocked, z streamed).
void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid3D<float>& in, Grid3D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr);

/// The scalar interpreter, bypassing the array kernel unconditionally.
/// Semantic reference for tests/kernels_test.cpp and baseline for
/// bench/microbench_kernel_dispatch.cpp.
void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid2D<float>& in, Grid2D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats,
                          const CancellationToken* cancel = nullptr);
void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid3D<float>& in, Grid3D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats,
                          const CancellationToken* cancel = nullptr);

}  // namespace fpga_stencil
