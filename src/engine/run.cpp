#include "engine/run.hpp"

#include <type_traits>

#include "common/expect.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/concurrent_accelerator.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {

ExecutionBackend route_backend(ExecutionBackend requested, int boards,
                               bool has_injector, std::int64_t total_blocks,
                               int workers) {
  if (requested != ExecutionBackend::automatic) return requested;
  if (boards > 1) return ExecutionBackend::cluster;
  if (has_injector) return ExecutionBackend::resilient;
  const std::int64_t p = requested_block_workers(workers);
  return p >= 2 && total_blocks >= 2 * p ? ExecutionBackend::block_parallel
                                         : ExecutionBackend::sync_sim;
}

ExecutionBackend resolve_backend(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 std::int64_t nx, std::int64_t ny,
                                 std::int64_t nz, const RunOptions& options) {
  const BlockingPlan plan =
      make_blocking_plan(resolve_stage_lag(taps, cfg), nx, ny, nz);
  return route_backend(options.backend, 1, options.injector != nullptr,
                       plan.total_blocks(), options.workers);
}

template <typename GridT>
RunStats run(const TapSet& taps, const AcceleratorConfig& cfg, GridT& grid,
             int iterations, const RunOptions& options,
             const ResilienceOptions& resilience, ClusterRun* cluster) {
  constexpr bool is_3d = std::is_same_v<GridT, Grid3D<float>>;
  const std::int64_t nz = [&] {
    if constexpr (is_3d) {
      return grid.nz();
    } else {
      return std::int64_t{1};
    }
  }();
  // Autotune first so backend resolution and every executor below see the
  // tuned geometry. The free-run path has no plan cache, so cached_only is
  // the sensible steady-state mode here (a TuningCache hit is a map
  // lookup); `search` probes on every call unless a cache file absorbs it.
  AcceleratorConfig rcfg = cfg;
  if (options.autotune != AutotuneMode::off) {
    HostAutotuner& tuner = options.tuner != nullptr
                               ? *options.tuner
                               : HostAutotuner::process_default();
    if (const std::optional<AutotuneOutcome> outcome = tuner.resolve(
            taps, cfg, grid.nx(), grid.ny(), nz, options.autotune,
            options.cancel.valid() ? &options.cancel : nullptr)) {
      rcfg = outcome->config;
      rcfg.telemetry = cfg.telemetry;
    }
  }
  switch (resolve_backend(taps, rcfg, grid.nx(), grid.ny(), nz, options)) {
    case ExecutionBackend::automatic:
      break;  // resolved above; unreachable
    case ExecutionBackend::sync_sim: {
      // The block executor at one worker, on the calling thread. Like the
      // sequential sweep it names, it arms no fault site and no watchdog.
      RunOptions one = options;
      one.workers = 1;
      one.injector = nullptr;
      one.watchdog_deadline = {};
      return run_block_parallel(taps, rcfg, grid, iterations, one);
    }
    case ExecutionBackend::concurrent:
      return run_concurrent(taps, rcfg, grid, iterations, options);
    case ExecutionBackend::block_parallel:
      return run_block_parallel(taps, rcfg, grid, iterations, options);
    case ExecutionBackend::resilient: {
      // The policy's base supplies what `options` leaves unset; in
      // particular its 500 ms watchdog default survives a 0 (= off)
      // deadline, since a resilient run without a deadline could never
      // unwind a stalled pass.
      ResilienceOptions ropts = resilience;
      RunOptions base = options;
      if (!base.injector) base.injector = ropts.base.injector;
      if (base.watchdog_deadline.count() == 0) {
        base.watchdog_deadline = ropts.base.watchdog_deadline;
      }
      if (!base.telemetry) base.telemetry = ropts.base.telemetry;
      ropts.base = base;
      return run_resilient(taps, rcfg, grid, iterations, ropts);
    }
    case ExecutionBackend::cluster: {
      if (cluster == nullptr) {
        throw ConfigError(
            "cluster backend is engine-only: submit a JobSpec with boards > "
            "1 to a StencilEngine");
      }
      // The cluster is a timing model (no block loop to poll); honor a
      // pre-run trip, then run to completion.
      options.cancel.throw_if_cancelled();
      MultiFpgaCluster model(
          cluster->boards, taps, rcfg,
          cluster->device.name.empty() ? arria10_gx1150() : cluster->device,
          cluster->link);
      cluster->stats = model.run(grid, iterations);
      // The cluster reports modeled timing, not streaming counts;
      // synthesize the valid-cell work for the job metrics.
      RunStats stats;
      stats.passes = cluster->stats.passes;
      stats.time_steps = iterations;
      stats.cells_written = std::int64_t(grid.size()) * iterations;
      return stats;
    }
  }
  throw ConfigError("unknown execution backend");
}

template RunStats run<Grid2D<float>>(const TapSet&, const AcceleratorConfig&,
                                     Grid2D<float>&, int, const RunOptions&,
                                     const ResilienceOptions&, ClusterRun*);
template RunStats run<Grid3D<float>>(const TapSet&, const AcceleratorConfig&,
                                     Grid3D<float>&, int, const RunOptions&,
                                     const ResilienceOptions&, ClusterRun*);

}  // namespace fpga_stencil
