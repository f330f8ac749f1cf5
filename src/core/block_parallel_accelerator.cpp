#include "core/block_parallel_accelerator.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/stopwatch.hpp"
#include "core/block_streamer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {

int requested_block_workers(int workers) {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int resolved_block_workers(const RunOptions& options,
                           const BlockingPlan& plan) {
  const std::int64_t requested = requested_block_workers(options.workers);
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min(requested, plan.total_blocks())));
}

namespace {

/// State the coordinator publishes to the pool for one pass. The start
/// barrier makes the plain fields visible to the workers; the finish
/// barrier hands them back (so only next_block is ever contended).
template <typename GridT>
struct PassState {
  const GridT* in = nullptr;
  GridT* out = nullptr;
  int steps = 0;
  std::atomic<std::int64_t> next_block{0};
  bool done = false;  ///< set before the start barrier to retire the pool
};

template <typename GridT>
RunStats run_block_parallel_impl(const TapSet& taps,
                                 const AcceleratorConfig& cfg0, GridT& grid,
                                 int iterations, const RunOptions& opts) {
  constexpr bool is_3d = std::is_same_v<GridT, Grid3D<float>>;
  FPGASTENCIL_EXPECT(cfg0.dims == (is_3d ? 3 : 2),
                     "grid dimensionality does not match the configuration");
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  AcceleratorConfig cfg = resolve_stage_lag(taps, cfg0);
  if (opts.telemetry) cfg.telemetry = opts.telemetry;
  Telemetry* const tel = cfg.telemetry;

  const BlockingPlan plan = [&] {
    if constexpr (is_3d) {
      return make_blocking_plan(cfg, grid.nx(), grid.ny(), grid.nz());
    } else {
      return make_blocking_plan(cfg, grid.nx(), grid.ny());
    }
  }();
  const int workers = resolved_block_workers(opts, plan);

  RunStats stats;
  if (iterations == 0) return stats;

  GridT scratch = [&] {
    if constexpr (is_3d) {
      return opts.scratch ? GridT(grid.nx(), grid.ny(), grid.nz(),
                                  std::move(*opts.scratch))
                          : GridT(grid.nx(), grid.ny(), grid.nz());
    } else {
      return opts.scratch
                 ? GridT(grid.nx(), grid.ny(), std::move(*opts.scratch))
                 : GridT(grid.nx(), grid.ny());
    }
  }();

  // The calling thread is worker 0 as well as the coordinator: it
  // publishes each pass, streams its share of the blocks between the two
  // barriers, then ping-pongs the grids. It spawns workers - 1 threads,
  // so a one-worker run (the sync simulator) starts none.
  const std::size_t pool_size = static_cast<std::size_t>(workers);
  PassState<GridT> pass;
  std::barrier<> start(workers);
  std::barrier<> finish(workers);
  std::vector<RunStats> worker_stats(pool_size);
  std::vector<std::int64_t> worker_busy_ns(pool_size, 0);
  std::vector<std::exception_ptr> worker_errors(pool_size);

  // Cooperative unwind machinery. `aborted` stops every worker's claim
  // loop; the watchdog (when armed) sets it and opens the injector's
  // stall gate so a hung worker wakes, claims nothing more, and reaches
  // the finish barrier -- the two-barrier pass protocol never deadlocks.
  FaultInjector* const fi = opts.injector;
  if (fi) fi->reset_stalls();  // re-arm the gate; no thread is parked yet
  const CancellationToken* const cancel =
      opts.cancel.valid() ? &opts.cancel : nullptr;
  std::atomic<bool> aborted{false};
  const auto unwind = [&] {
    aborted.store(true, std::memory_order_release);
    if (tel) tel->tracer().instant("block_parallel_unwind", 0,
                                   "block_parallel");
    if (fi) fi->release_stalls();
  };
  std::optional<Watchdog> dog;
  if (opts.watchdog_deadline.count() > 0) {
    dog.emplace(opts.watchdog_deadline, unwind);
  }

  // A worker's private interpreter state: own PE chain (shift-register
  // state is per-block, reset by begin_block) and own ping-pong lane
  // buffers. Built only when blocks run on the interpreter; the array
  // kernel needs neither.
  struct Interpreter {
    std::vector<ProcessingElement> pes;
    std::optional<BufferPool::Lease> lease;
    std::vector<float> local_lanes;
    std::span<float> va;
    std::span<float> vb;
  };
  const bool interpreted = runs_on_interpreter(cfg);
  const auto setup = [&](int w, Interpreter& it) {
    if (!interpreted) return;
    try {
      it.pes.reserve(std::size_t(cfg.partime));
      for (int k = 0; k < cfg.partime; ++k) it.pes.emplace_back(taps, cfg, k);
      const std::size_t lane = std::size_t(cfg.parvec);
      std::span<float> lanes;
      if (opts.pool) {
        it.lease.emplace(*opts.pool, 2 * lane);
        lanes = it.lease->buffer();
      } else {
        it.local_lanes.resize(2 * lane);
        lanes = it.local_lanes;
      }
      it.va = lanes.first(lane);
      it.vb = lanes.subspan(lane, lane);
    } catch (...) {
      // The worker must keep participating in the barriers even when its
      // setup failed, or the pass protocol would deadlock; it just claims
      // no blocks. The error surfaces after the first pass.
      worker_errors[std::size_t(w)] = std::current_exception();
    }
  };

  // Worker w's share of the current pass: claims blocks until the cursor
  // runs out or the run unwinds. Runs between the two barriers.
  const auto stream_pass = [&](int w, Interpreter& it) {
    if (worker_errors[std::size_t(w)]) return;
    const Stopwatch busy_clock;
    Tracer::Span span;
    if (tel) {
      span = tel->tracer().span("block_parallel.worker", w, "block_parallel");
    }
    try {
      for (;;) {
        if (aborted.load(std::memory_order_acquire)) break;
        if (cancel) cancel->throw_if_cancelled();
        if (fi && fi->should_fire(FaultSite::kernel_hang)) {
          // Park on the stall gate exactly like a hung PE; only the
          // watchdog's unwind releases it. Claim nothing afterwards.
          fi->stall_until_released();
          if (aborted.load(std::memory_order_acquire)) break;
        }
        const std::int64_t b =
            pass.next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= plan.total_blocks()) break;
        stream_block(taps, it.pes, plan, block_extent(plan, b), *pass.in,
                     *pass.out, pass.steps, it.va, it.vb,
                     worker_stats[std::size_t(w)], cancel);
        if (dog) dog->kick();
      }
    } catch (...) {
      // Cancellation or a streaming error: stop the siblings too so the
      // pass unwinds at block granularity, then report through the
      // per-worker slot (first worker by index wins the rethrow).
      aborted.store(true, std::memory_order_release);
      if (fi) fi->release_stalls();
      worker_errors[std::size_t(w)] = std::current_exception();
    }
    if (tel) span.end();
    worker_busy_ns[std::size_t(w)] += busy_clock.nanoseconds();
  };

  const auto pool_worker = [&](int w) {
    Interpreter it;
    setup(w, it);
    for (;;) {
      start.arrive_and_wait();
      if (pass.done) return;
      stream_pass(w, it);
      finish.arrive_and_wait();
    }
  };

  const Stopwatch run_clock;
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(pool_size - 1);
  for (int w = 1; w < workers; ++w) pool_threads.emplace_back(pool_worker, w);
  Interpreter caller;
  setup(0, caller);

  GridT* cur = &grid;
  GridT* nxt = &scratch;
  int remaining = iterations;
  std::int64_t written_so_far = 0;
  bool failed = false;
  while (remaining > 0 && !failed) {
    pass.in = cur;
    pass.out = nxt;
    pass.steps = std::min(remaining, cfg.partime);
    pass.next_block.store(0, std::memory_order_relaxed);
    const Stopwatch pass_clock;
    start.arrive_and_wait();   // release the pass to the pool
    stream_pass(0, caller);
    finish.arrive_and_wait();  // every block of the pass has retired
    for (const std::exception_ptr& e : worker_errors) {
      if (e) failed = true;
    }
    if (aborted.load(std::memory_order_acquire)) failed = true;
    if (failed) break;
    std::swap(cur, nxt);
    remaining -= pass.steps;
    stats.time_steps += pass.steps;
    ++stats.passes;
    if (tel) {
      std::int64_t written = 0;
      for (const RunStats& ws : worker_stats) written += ws.cells_written;
      record_pass_metrics(*tel, "block_parallel", written - written_so_far,
                          pass_clock.nanoseconds());
      written_so_far = written;
    }
  }
  pass.done = true;
  start.arrive_and_wait();  // retire the pool
  if (dog) dog->stop();
  for (std::thread& t : pool_threads) t.join();
  if (failed) {
    // Unwound mid-run (cancel, deadline, watchdog trip, or a worker
    // error). Leave the caller's grid holding the last *completed* pass
    // -- the aborted pass only touched the scratch side -- and drop the
    // scratch storage (opts.scratch stays empty, the documented abort
    // contract; the pool lease still flows back through the caller).
    if (cur != &grid) std::swap(grid, scratch);
    for (const std::exception_ptr& e : worker_errors) {
      if (e) std::rethrow_exception(e);  // first worker by index wins
    }
    // No worker recorded an error: the watchdog unwound a stalled pass
    // (the hung worker parked on the gate, its siblings drained the
    // remaining blocks).
    throw PassAbortedError(
        "block-parallel pass unwound by watchdog (no progress within "
        "deadline)");
  }
  for (const std::exception_ptr& e : worker_errors) {
    if (e) std::rethrow_exception(e);  // first worker by index wins
  }

  // Merge in worker-index order so the aggregate is deterministic too.
  for (const RunStats& ws : worker_stats) {
    stats.cells_streamed += ws.cells_streamed;
    stats.cells_written += ws.cells_written;
    stats.cells_computed += ws.cells_computed;
    stats.vectors_processed += ws.vectors_processed;
    stats.block_passes += ws.block_passes;
  }

  if (cur != &grid) std::swap(grid, scratch);
  if (opts.scratch) *opts.scratch = scratch.release_storage();

  if (tel) {
    MetricsRegistry& m = tel->metrics();
    m.gauge("block_parallel.workers").set(workers);
    m.counter("block_parallel.blocks").add(stats.block_passes);
    const std::int64_t run_ns = run_clock.nanoseconds();
    if (run_ns > 0) {
      m.gauge("block_parallel.blocks_per_s")
          .set(stats.block_passes * 1'000'000'000 / run_ns);
    }
    // Redundant work actually incurred (streamed/written, eq. 2), in
    // thousandths -- the registry is integer-only.
    m.gauge("block_parallel.redundancy_milli")
        .set(std::int64_t(stats.redundancy() * 1000.0));
    // Stage-cell evaluations per update actually paid by the compute.
    m.gauge("block_parallel.compute_redundancy_milli")
        .set(std::int64_t(stats.compute_redundancy() * 1000.0));
    Histogram& busy = m.histogram("block_parallel.worker_busy_ns",
                                  default_latency_bounds_ns());
    for (const std::int64_t ns : worker_busy_ns) busy.observe(ns);
  }
  return stats;
}

}  // namespace

template <typename GridT>
RunStats run_block_parallel(const TapSet& taps, const AcceleratorConfig& cfg,
                            GridT& grid, int iterations,
                            const RunOptions& options) {
  return run_block_parallel_impl(taps, cfg, grid, iterations, options);
}

template RunStats run_block_parallel<Grid2D<float>>(const TapSet&,
                                                    const AcceleratorConfig&,
                                                    Grid2D<float>&, int,
                                                    const RunOptions&);
template RunStats run_block_parallel<Grid3D<float>>(const TapSet&,
                                                    const AcceleratorConfig&,
                                                    Grid3D<float>&, int,
                                                    const RunOptions&);

}  // namespace fpga_stencil
