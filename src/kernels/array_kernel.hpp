// The runtime-tap array kernel: one overlapped block pass over any tap
// set under any boundary condition, vectorized.
//
// This is the host-side analogue of the paper's synthesized pipeline. The
// scalar interpreter (`stream_block_generic`) walks a ring-buffer shift
// register cell by cell with per-tap bounds checks; the array kernel
// instead keeps a structure-of-arrays rolling window of planes (3D) /
// rows (2D) per temporal stage (PlanarShiftRegister) and updates each
// output row with tap-outer / lane-inner loops over fixed-width chunks.
// The tap list -- offsets, coefficients and radius -- is runtime data
// read from the TapSet in its own order, which is the accumulation
// order, so one compiled kernel serves every tap set, every radius and
// every parvec.
//
// Bit-exactness contract (verified by tests/kernels_test.cpp and
// tests/boundary_test.cpp): for every cell the accumulation is
// `acc = c[0]*tap0; acc += c[t]*tapt` in tap order, every tap reading the
// value the tap set's boundary condition picks per axis -- exactly the
// interpreter's arithmetic, in the same order. Boundaries are resolved
// by ghost columns in x, ghost rows in y and a source-plane table in z
// instead of per-tap select-chains; periodic tap sets stream
// wrap-extended. The only
// intentional divergence is in cells no valid output can observe: the
// kernel computes only each stage's influence cone, where the
// interpreter (like the FPGA pipeline) computes the whole block,
// including block-edge lanes that read wrapped shift-register rows (see
// docs/KERNELS.md for why this is sound for any tap set).
#pragma once

#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

template <typename T>
class Grid2D;
template <typename T>
class Grid3D;
class CancellationToken;
struct RunStats;

/// Runs one 2D block pass (x blocked, y streamed) of `steps`
/// (<= cfg.partime) time steps of `taps` over `blk`, retiring the block's
/// valid compute region into `out`. Stats accounting matches the
/// interpreter field for field (cells_streamed, vectors_processed,
/// block_passes, cells_written) except cells_computed, which counts the
/// cells of the stage cones the pass evaluates (the in-grid ones; every
/// one, pre-pad included, for periodic); a non-null `cancel` token is
/// polled once per streamed row.
void run_block_2d(const BlockingPlan& plan, const BlockExtent& blk,
                  const TapSet& taps, const Grid2D<float>& in,
                  Grid2D<float>& out, int steps, RunStats& stats,
                  const CancellationToken* cancel);

/// The 3D pass (x/y blocked, z streamed); `cancel` is polled once per
/// streamed plane.
void run_block_3d(const BlockingPlan& plan, const BlockExtent& blk,
                  const TapSet& taps, const Grid3D<float>& in,
                  Grid3D<float>& out, int steps, RunStats& stats,
                  const CancellationToken* cancel);

}  // namespace fpga_stencil
