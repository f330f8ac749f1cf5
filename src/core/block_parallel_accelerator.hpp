// The block executor: the one pass loop, at one worker or many.
//
// Overlapped spatial blocking (paper eq. 2) pads every block with a halo
// of partime*rad cells per side, which makes each block's full
// partime-step chain completely independent within a pass: no halo
// exchange, no ordering constraints between blocks. On the FPGA that
// independence buys redundancy-free synchronization between PEs; on the
// host it buys thread-level parallelism. The executor streams the blocks
// of each pass of a BlockingPlan on a pool of workers; the synchronous
// simulator (StencilAccelerator::run, the sync_sim backend) is the same
// executor at one worker:
//
//   * The calling thread is worker 0 and the coordinator; a run spawns
//     workers - 1 threads, so a one-worker run starts none.
//   * A worker shares nothing but the two grids and the block cursor. On
//     the array kernel it needs no private state; only on the
//     interpreter (runs_on_interpreter) does it build a private PE chain
//     and a pair of lane buffers (leased from RunOptions::pool when set).
//   * Work stealing: workers claim flat block indices from a shared
//     atomic cursor, so an uneven last block never idles the pool.
//   * Passes are barriers: pass k+1 reads cells that pass k wrote into
//     neighbouring blocks' halo regions, so every block of a pass
//     retires before the grids ping-pong and the next pass starts.
//   * Determinism: each block writes only its own compute region
//     (disjoint by construction of the plan) through the one
//     stream_block() core, so the output is bit-exact with the naive
//     reference for ANY worker count. Pinned by
//     tests/block_parallel_test.cpp, including under TSan.
//
// Scaling trade: more workers want more blocks (smaller bsize), but
// smaller blocks raise the redundancy factor streamed/valid (eq. 2).
// docs/PARALLEL.md quantifies the trade; the router only picks this
// backend when the plan yields at least two blocks per worker.
#pragma once

#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"

namespace fpga_stencil {

/// Worker count a RunOptions asks for: `workers` when positive, else
/// std::thread::hardware_concurrency() (always >= 1). The routing rule
/// (>= 2 blocks per worker) uses this uncapped request.
[[nodiscard]] int requested_block_workers(int workers);

/// Workers a run of `plan` actually uses, the calling thread included:
/// the request clamped to the plan's block count, so no worker is born
/// idle.
[[nodiscard]] int resolved_block_workers(const RunOptions& options,
                                         const BlockingPlan& plan);

/// Advances `grid` by `iterations` time steps in place on
/// resolved_block_workers(options, plan) workers, the calling thread
/// among them. Bit-exact for the same inputs regardless of
/// options.workers; StencilAccelerator::run is this at one worker.
/// Instantiated for Grid2D<float> and Grid3D<float>.
template <typename GridT>
RunStats run_block_parallel(const TapSet& taps, const AcceleratorConfig& cfg,
                            GridT& grid, int iterations,
                            const RunOptions& options = {});

extern template RunStats run_block_parallel<Grid2D<float>>(
    const TapSet&, const AcceleratorConfig&, Grid2D<float>&, int,
    const RunOptions&);
extern template RunStats run_block_parallel<Grid3D<float>>(
    const TapSet&, const AcceleratorConfig&, Grid3D<float>&, int,
    const RunOptions&);

}  // namespace fpga_stencil
