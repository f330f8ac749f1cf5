// The one entry point over the execution paths.
//
// Callers describe WHAT to run (taps, config, grid, iterations) and HOW
// in a single RunOptions; run() routes to the matching backend instead of
// every CLI and bench hand-picking accelerator classes:
//
//   options.backend          routed to
//   -----------------------  ------------------------------------------
//   sync_sim                 run_block_parallel at one worker (what
//                            StencilAccelerator::run runs); no fault
//                            site or watchdog is armed
//   concurrent               run_concurrent
//   block_parallel           run_block_parallel
//   resilient                run_resilient (options become .base; the
//                            500 ms watchdog default is restored when
//                            options left the deadline at 0, since a
//                            resilient run without a deadline could
//                            never unwind a stalled pass)
//   cluster                  MultiFpgaCluster; needs the `cluster`
//                            shape an engine job carries (boards,
//                            device, link), else throws ConfigError
//   automatic                route_backend() below, the policy the
//                            StencilEngine applies to every job and
//                            program node; a program job whose nodes
//                            route differently reports `automatic` as
//                            its JobResult::backend
//
// Every route is bit-exact with every other (pinned by tests), so the
// choice is purely a performance/resilience decision. For queueing,
// plan caching, and buffer pooling across many jobs, use StencilEngine;
// run() is the direct, call-site-blocking form of the same routing, and
// the backend switch the engine runs every job node through.
#pragma once

#include "cluster/multi_fpga.hpp"
#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "fault/resilient_runner.hpp"

namespace fpga_stencil {

/// The routing policy. An explicit `requested` backend is kept;
/// `automatic` resolves, in order, to: cluster when boards > 1; resilient
/// when an injector is set (never the bare pipeline: an injected stall
/// without a watchdog would deadlock the pass); block_parallel when at
/// least 2 `workers` are requested (0 = hardware threads) AND the plan
/// yields >= 2 blocks per worker; else sync_sim, whose single sweep beats
/// spawning a starved pool.
[[nodiscard]] ExecutionBackend route_backend(ExecutionBackend requested,
                                             int boards, bool has_injector,
                                             std::int64_t total_blocks,
                                             int workers);

/// The routing decision run() would take, exposed so callers (stencilctl)
/// can report which backend a RunOptions resolves to: route_backend() on
/// one board over the blocking plan of (taps, cfg, extents).
ExecutionBackend resolve_backend(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 std::int64_t nx, std::int64_t ny,
                                 std::int64_t nz, const RunOptions& options);

/// The multi-board shape of an engine job, and the modeled timing the
/// cluster backend reports back.
struct ClusterRun {
  int boards = 1;
  DeviceSpec device;  ///< name empty = arria10_gx1150()
  LinkSpec link;
  ClusterStats stats;  ///< out
};

/// Advances `grid` by `iterations` time steps in place on the backend
/// `options` selects; holds the one backend switch. The engine's node
/// runner calls it with the backend already routed, plus the two inputs
/// only engine jobs carry: the resilient arm runs `resilience`'s policy
/// with the knobs `options` sets as its base (its injector, watchdog and
/// telemetry fill in where `options` leaves them unset), and the cluster
/// arm needs `cluster`. Instantiated for Grid2D<float> and Grid3D<float>.
template <typename GridT>
RunStats run(const TapSet& taps, const AcceleratorConfig& cfg, GridT& grid,
             int iterations, const RunOptions& options = {},
             const ResilienceOptions& resilience = {},
             ClusterRun* cluster = nullptr);

extern template RunStats run<Grid2D<float>>(const TapSet&,
                                            const AcceleratorConfig&,
                                            Grid2D<float>&, int,
                                            const RunOptions&,
                                            const ResilienceOptions&,
                                            ClusterRun*);
extern template RunStats run<Grid3D<float>>(const TapSet&,
                                            const AcceleratorConfig&,
                                            Grid3D<float>&, int,
                                            const RunOptions&,
                                            const ResilienceOptions&,
                                            ClusterRun*);

}  // namespace fpga_stencil
