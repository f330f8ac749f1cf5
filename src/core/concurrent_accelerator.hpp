// Concurrent dataflow execution of the accelerator.
//
// On silicon, the read kernel, every autorun PE, and the write kernel run
// *simultaneously*, connected by channels. The block executor
// (run_block_parallel; StencilAccelerator is that executor at one worker)
// computes the same function block by block, far faster; this module
// executes the real thing -- one host thread per kernel, blocking
// SyncChannels between them -- to demonstrate that the design is free of
// ordering assumptions beyond the channel protocol. It steps a PE chain
// on every run; the block executor does so only when the array kernel is
// off. Output is bit-exact with both the synchronous simulator and the
// naive reference (pinned by tests).
//
// Use StencilAccelerator or run_block_parallel for speed; use this to
// study the dataflow.
//
// Fault tolerance: with a RunOptions carrying a FaultInjector the
// pass exercises the kernel_hang / channel_stall / seu_bit_flip sites,
// and a watchdog (deadline > 0) unwinds a stalled pass by closing every
// channel -- stage threads observe ChannelClosedError / end-of-stream and
// join, and the pass throws PassAbortedError with the input grid intact
// (pass output is only committed on a complete pass). The injector is
// deliberately explicit here rather than read from the process-wide
// registry: injecting a stall without a watchdog would deadlock.
//
// RunOptions itself lives in core/run_options.hpp: it is the one options
// struct shared by every single-board backend (see also engine/run.hpp
// for the routing entry point).
#pragma once

#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "fault/fault_injector.hpp"

namespace fpga_stencil {

/// Advances `grid` by `iterations` time steps in place using one thread
/// per pipeline stage. Throws PassAbortedError if the watchdog unwinds a
/// stalled pass (the grid then still holds the last completed pass).
/// Instantiated for Grid2D<float> and Grid3D<float>.
template <typename GridT>
RunStats run_concurrent(const TapSet& taps, const AcceleratorConfig& cfg,
                        GridT& grid, int iterations,
                        const RunOptions& options = {});

extern template RunStats run_concurrent<Grid2D<float>>(
    const TapSet&, const AcceleratorConfig&, Grid2D<float>&, int,
    const RunOptions&);
extern template RunStats run_concurrent<Grid3D<float>>(
    const TapSet&, const AcceleratorConfig&, Grid3D<float>&, int,
    const RunOptions&);

}  // namespace fpga_stencil
