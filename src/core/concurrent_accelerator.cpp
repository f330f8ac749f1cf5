#include "core/concurrent_accelerator.hpp"

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "fault/watchdog.hpp"
#include "pipeline/sync_channel.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

using Vec = std::vector<float>;

/// SEU model: flips one deterministic-geometry bit of one lane of the
/// vector about to enter the PE's shift register.
void inject_bit_flip(FaultInjector& fi, Vec& v) {
  const std::uint32_t lane = fi.pick_lane(std::uint32_t(v.size()));
  std::uint32_t bits;
  std::memcpy(&bits, &v[lane], sizeof(bits));
  bits ^= 1u << fi.pick_bit();
  std::memcpy(&v[lane], &bits, sizeof(bits));
}

/// Everything one pass needs, independent of dimensionality: the block
/// contexts in streaming order, the per-block vector count, and callbacks
/// implementing the read/write kernels' data movement.
struct PassGeometry {
  std::vector<BlockContext> blocks;
  std::int64_t vectors_per_block = 0;
  /// Fills `out` with the input vector for (block, q).
  std::function<void(std::size_t, std::int64_t, float*)> read;
  /// Retires the output vector for (block, q); returns cells written.
  std::function<int(std::size_t, std::int64_t, const float*)> write;
};

/// One pass of `steps` time steps, executed as a true dataflow: a reader
/// thread, one thread per PE, and the calling thread as the write kernel.
///
/// With a watchdog armed, a stalled stage (injected hang/stall, or any
/// future bug) is unwound rather than deadlocking: the timeout closes
/// every channel and opens the injector's stall gate, each stage thread
/// observes end-of-stream / ChannelClosedError and exits, and the pass
/// throws PassAbortedError after joining all threads.
void run_pass_concurrent(const TapSet& taps, const AcceleratorConfig& cfg,
                         const PassGeometry& geo, int steps,
                         const RunOptions& opts, RunStats& stats) {
  const int stages = cfg.partime;
  FaultInjector* fi = opts.injector;
  if (fi) fi->reset_stalls();

  // Trace lanes: 0 = read kernel, 1..stages = PEs, stages+1 = write kernel.
  Telemetry* const tel = opts.telemetry;
  const int write_lane = stages + 1;
  if (tel) {
    Tracer& tr = tel->tracer();
    tr.set_thread_name(0, "read_kernel");
    for (int k = 0; k < stages; ++k) {
      tr.set_thread_name(k + 1, "PE" + std::to_string(k));
    }
    tr.set_thread_name(write_lane, "write_kernel");
  }

  std::vector<std::unique_ptr<SyncChannel<Vec>>> channels;
  channels.reserve(std::size_t(stages) + 1);
  for (int i = 0; i <= stages; ++i) {
    channels.push_back(std::make_unique<SyncChannel<Vec>>(opts.channel_depth));
    if (tel) {
      channels.back()->attach_probe(
          make_channel_probe(*tel, "channel." + std::to_string(i)));
    }
  }

  std::atomic<bool> aborted{false};
  const auto unwind = [&] {
    aborted.store(true, std::memory_order_release);
    if (tel) tel->tracer().instant("pipeline_unwind", write_lane);
    if (fi) fi->release_stalls();
    for (auto& ch : channels) ch->close();
  };

  std::optional<Watchdog> dog;
  if (opts.watchdog_deadline.count() > 0) {
    dog.emplace(opts.watchdog_deadline, unwind);
  }

  std::vector<std::thread> threads;
  threads.reserve(std::size_t(stages) + 1);

  Tracer::Span pass_span;
  if (tel) pass_span = tel->tracer().span("pass", write_lane);
  const Stopwatch pass_clock;
  const std::int64_t written_before = stats.cells_written;

  // Read kernel.
  threads.emplace_back([&] {
    Tracer::Span span;
    if (tel) span = tel->tracer().span("read_kernel", 0);
    try {
      for (std::size_t b = 0; b < geo.blocks.size(); ++b) {
        for (std::int64_t q = 0; q < geo.vectors_per_block; ++q) {
          if (aborted.load(std::memory_order_acquire)) return;
          Vec v(std::size_t(cfg.parvec));
          geo.read(b, q, v.data());
          if (fi && fi->should_fire(FaultSite::channel_stall)) {
            fi->stall_until_released();
            // Woken by the watchdog's unwind, not a real release: exit
            // without touching further fault sites, so an aborted attempt
            // consumes only the stall's own budget.
            if (aborted.load(std::memory_order_acquire)) return;
          }
          channels[0]->write(std::move(v));
        }
      }
      channels[0]->close();
    } catch (const ChannelClosedError&) {
      // Pipeline shutdown raced our write; nothing to clean up.
    }
  });

  // Compute PEs: each an autorun-style loop over its input channel.
  for (int k = 0; k < stages; ++k) {
    threads.emplace_back([&, k] {
      Tracer::Span span;
      Counter* vectors = nullptr;
      if (tel) {
        span = tel->tracer().span("PE" + std::to_string(k), k + 1);
        vectors =
            &tel->metrics().counter("pe." + std::to_string(k) + ".vectors");
      }
      try {
        ProcessingElement pe(taps, cfg, k);
        Vec out(std::size_t(cfg.parvec));
        for (std::size_t b = 0; b < geo.blocks.size(); ++b) {
          BlockContext ctx = geo.blocks[b];
          ctx.passthrough = k >= steps;
          pe.begin_block(ctx);
          for (std::int64_t q = 0; q < geo.vectors_per_block; ++q) {
            std::optional<Vec> in = channels[std::size_t(k)]->read();
            if (!in.has_value()) {
              // Upstream ended early: the pass is being unwound.
              channels[std::size_t(k) + 1]->close();
              return;
            }
            if (fi && fi->should_fire(FaultSite::kernel_hang)) {
              fi->stall_until_released();
              if (aborted.load(std::memory_order_acquire)) {
                channels[std::size_t(k) + 1]->close();
                return;
              }
            }
            if (fi && fi->should_fire(FaultSite::seu_bit_flip)) {
              inject_bit_flip(*fi, *in);
            }
            pe.process_vector(q, *in, out);
            if (vectors) vectors->add(1);
            channels[std::size_t(k) + 1]->write(out);
          }
        }
        channels[std::size_t(k) + 1]->close();
      } catch (const ChannelClosedError&) {
        // Downstream closed under us; exit, the write kernel reports.
      }
    });
  }

  // Write kernel runs on the calling thread. With a cancellation token
  // attached it polls the token between bounded channel reads, so a
  // cancel/deadline trips within one poll interval even while the
  // pipeline is streaming normally.
  const CancellationToken* const cancel =
      opts.cancel.valid() ? &opts.cancel : nullptr;
  constexpr std::chrono::milliseconds kCancelPoll{5};
  Tracer::Span write_span;
  if (tel) write_span = tel->tracer().span("write_kernel", write_lane);
  bool underrun = false;
  bool cancelled = false;
  for (std::size_t b = 0; b < geo.blocks.size() && !underrun && !cancelled;
       ++b) {
    for (std::int64_t q = 0; q < geo.vectors_per_block; ++q) {
      std::optional<Vec> v;
      if (cancel) {
        Vec tmp;
        for (;;) {
          if (cancel->cancel_requested()) {
            cancelled = true;
            break;
          }
          const ChannelStatus st =
              channels[std::size_t(stages)]->read_for(tmp, kCancelPoll);
          if (st == ChannelStatus::ok) {
            v = std::move(tmp);
            break;
          }
          if (st == ChannelStatus::closed) break;  // leaves v empty
        }
        if (cancelled) break;
      } else {
        v = channels[std::size_t(stages)]->read();
      }
      if (!v.has_value()) {
        underrun = true;
        break;
      }
      if (dog) dog->kick();
      stats.cells_written += geo.write(b, q, v->data());
      stats.cells_streamed += cfg.parvec;
    }
    if (!underrun && !cancelled) {
      stats.vectors_processed += geo.vectors_per_block;
      stats.cells_computed += geo.vectors_per_block * cfg.parvec * steps;
      ++stats.block_passes;
    }
  }
  write_span.end();

  // Make sure every stage observes shutdown before joining.
  if (underrun || cancelled) unwind();
  if (dog) dog->stop();
  for (std::thread& t : threads) t.join();
  pass_span.end();

  if (tel) {
    if (underrun) tel->metrics().counter("pipeline.underruns").add(1);
    record_pass_metrics(*tel, "pipeline",
                        stats.cells_written - written_before,
                        pass_clock.nanoseconds());
  }

  if (cancelled) {
    // The pass output never committed (it lives in the scratch side the
    // caller discards on unwind), so the caller-visible grid still holds
    // the last completed pass.
    cancel->throw_if_cancelled();
  }
  if (underrun) {
    throw PassAbortedError(
        dog && dog->fired()
            ? "concurrent pass unwound by watchdog (no progress within "
              "deadline)"
            : "concurrent pass aborted: pipeline underrun");
  }
}

RunStats run_concurrent_impl(const TapSet& taps, const AcceleratorConfig& cfg,
                             Grid2D<float>& grid, int iterations,
                             const RunOptions& options) {
  FPGASTENCIL_EXPECT(cfg.dims == 2, "2D run on a 3D configuration");
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  // Resolve the stage lag exactly as StencilAccelerator does.
  AcceleratorConfig rcfg = resolve_stage_lag(taps, cfg);
  RunOptions ropts = options;
  if (!ropts.telemetry) ropts.telemetry = rcfg.telemetry;

  RunStats stats;
  Grid2D<float> scratch =
      ropts.scratch
          ? Grid2D<float>(grid.nx(), grid.ny(), std::move(*ropts.scratch))
          : Grid2D<float>(grid.nx(), grid.ny());
  int remaining = iterations;
  while (remaining > 0) {
    if (ropts.cancel.valid()) ropts.cancel.throw_if_cancelled();
    const int steps = std::min(remaining, rcfg.partime);
    const BlockingPlan plan = make_blocking_plan(rcfg, grid.nx(), grid.ny());
    const std::int64_t halo = rcfg.halo();
    const std::int64_t drain = rcfg.stream_drain();
    const std::int64_t csize = rcfg.csize_x();
    const Grid2D<float>& in = grid;
    Grid2D<float>& out = scratch;

    PassGeometry geo;
    geo.vectors_per_block = plan.cells_streamed_per_pass / rcfg.parvec;
    for (std::int64_t bx = 0; bx < plan.blocks_x; ++bx) {
      BlockContext ctx;
      ctx.block_x0 = bx * csize - halo;
      ctx.nx = in.nx();
      ctx.ny = in.ny();
      geo.blocks.push_back(ctx);
    }
    geo.read = [&, halo, csize](std::size_t b, std::int64_t q, float* v) {
      const std::int64_t block_x0 = std::int64_t(b) * csize - halo;
      const std::int64_t flat = q * rcfg.parvec;
      const std::int64_t y = flat / rcfg.bsize_x;
      const std::int64_t xr = flat % rcfg.bsize_x;
      for (std::int64_t l = 0; l < rcfg.parvec; ++l) {
        const std::int64_t xg = block_x0 + xr + l;
        v[l] = (xg >= 0 && xg < in.nx() && y < in.ny()) ? in.at(xg, y) : 0.0f;
      }
    };
    geo.write = [&, halo, drain, csize](std::size_t b, std::int64_t q,
                                        const float* v) {
      const std::int64_t block_x0 = std::int64_t(b) * csize - halo;
      const std::int64_t valid_x_end =
          std::min(in.nx(), (std::int64_t(b) + 1) * csize);
      const std::int64_t flat = q * rcfg.parvec;
      const std::int64_t yg = flat / rcfg.bsize_x - drain;
      if (yg < 0 || yg >= in.ny()) return 0;
      int written = 0;
      for (std::int64_t l = 0; l < rcfg.parvec; ++l) {
        const std::int64_t x_rel = flat % rcfg.bsize_x + l;
        const std::int64_t xg = block_x0 + x_rel;
        if (x_rel >= halo && x_rel < halo + csize && xg < valid_x_end) {
          out.at(xg, yg) = v[l];
          ++written;
        }
      }
      return written;
    };

    run_pass_concurrent(taps, rcfg, geo, steps, ropts, stats);
    std::swap(grid, scratch);
    remaining -= steps;
    stats.time_steps += steps;
    ++stats.passes;
  }
  if (ropts.scratch) *ropts.scratch = scratch.release_storage();
  return stats;
}

RunStats run_concurrent_impl(const TapSet& taps, const AcceleratorConfig& cfg,
                             Grid3D<float>& grid, int iterations,
                             const RunOptions& options) {
  FPGASTENCIL_EXPECT(cfg.dims == 3, "3D run on a 2D configuration");
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  AcceleratorConfig rcfg = resolve_stage_lag(taps, cfg);
  RunOptions ropts = options;
  if (!ropts.telemetry) ropts.telemetry = rcfg.telemetry;

  RunStats stats;
  Grid3D<float> scratch =
      ropts.scratch
          ? Grid3D<float>(grid.nx(), grid.ny(), grid.nz(),
                          std::move(*ropts.scratch))
          : Grid3D<float>(grid.nx(), grid.ny(), grid.nz());
  int remaining = iterations;
  while (remaining > 0) {
    if (ropts.cancel.valid()) ropts.cancel.throw_if_cancelled();
    const int steps = std::min(remaining, rcfg.partime);
    const BlockingPlan plan =
        make_blocking_plan(rcfg, grid.nx(), grid.ny(), grid.nz());
    const std::int64_t halo = rcfg.halo();
    const std::int64_t drain = rcfg.stream_drain();
    const std::int64_t csx = rcfg.csize_x();
    const std::int64_t csy = rcfg.csize_y();
    const std::int64_t plane = rcfg.row_cells();
    const Grid3D<float>& in = grid;
    Grid3D<float>& out = scratch;

    PassGeometry geo;
    geo.vectors_per_block = plan.cells_streamed_per_pass / rcfg.parvec;
    for (std::int64_t by = 0; by < plan.blocks_y; ++by) {
      for (std::int64_t bx = 0; bx < plan.blocks_x; ++bx) {
        BlockContext ctx;
        ctx.block_x0 = bx * csx - halo;
        ctx.block_y0 = by * csy - halo;
        ctx.nx = in.nx();
        ctx.ny = in.ny();
        ctx.nz = in.nz();
        geo.blocks.push_back(ctx);
      }
    }
    geo.read = [&, plane](std::size_t b, std::int64_t q, float* v) {
      const BlockContext& ctx = geo.blocks[b];
      const std::int64_t flat = q * rcfg.parvec;
      const std::int64_t z = flat / plane;
      const std::int64_t rem = flat % plane;
      const std::int64_t yg = ctx.block_y0 + rem / rcfg.bsize_x;
      const std::int64_t xr = rem % rcfg.bsize_x;
      const bool row_ok = z < in.nz() && yg >= 0 && yg < in.ny();
      for (std::int64_t l = 0; l < rcfg.parvec; ++l) {
        const std::int64_t xg = ctx.block_x0 + xr + l;
        v[l] = (row_ok && xg >= 0 && xg < in.nx()) ? in.at(xg, yg, z) : 0.0f;
      }
    };
    geo.write = [&, halo, drain, csx, csy, plane](
                    std::size_t b, std::int64_t q, const float* v) {
      const BlockContext& ctx = geo.blocks[b];
      const std::int64_t valid_x_end =
          std::min(in.nx(), ctx.block_x0 + halo + csx);
      const std::int64_t valid_y_end =
          std::min(in.ny(), ctx.block_y0 + halo + csy);
      const std::int64_t flat = q * rcfg.parvec;
      const std::int64_t zg = flat / plane - drain;
      if (zg < 0 || zg >= in.nz()) return 0;
      const std::int64_t rem = flat % plane;
      const std::int64_t y_rel = rem / rcfg.bsize_x;
      const std::int64_t yg = ctx.block_y0 + y_rel;
      if (y_rel < halo || y_rel >= halo + csy || yg >= valid_y_end) return 0;
      int written = 0;
      for (std::int64_t l = 0; l < rcfg.parvec; ++l) {
        const std::int64_t x_rel = rem % rcfg.bsize_x + l;
        const std::int64_t xg = ctx.block_x0 + x_rel;
        if (x_rel >= halo && x_rel < halo + csx && xg < valid_x_end) {
          out.at(xg, yg, zg) = v[l];
          ++written;
        }
      }
      return written;
    };

    run_pass_concurrent(taps, rcfg, geo, steps, ropts, stats);
    std::swap(grid, scratch);
    remaining -= steps;
    stats.time_steps += steps;
    ++stats.passes;
  }
  if (ropts.scratch) *ropts.scratch = scratch.release_storage();
  return stats;
}

}  // namespace

template <typename GridT>
RunStats run_concurrent(const TapSet& taps, const AcceleratorConfig& cfg,
                        GridT& grid, int iterations,
                        const RunOptions& options) {
  return run_concurrent_impl(taps, cfg, grid, iterations, options);
}

template RunStats run_concurrent<Grid2D<float>>(const TapSet&,
                                                const AcceleratorConfig&,
                                                Grid2D<float>&, int,
                                                const RunOptions&);
template RunStats run_concurrent<Grid3D<float>>(const TapSet&,
                                                const AcceleratorConfig&,
                                                Grid3D<float>&, int,
                                                const RunOptions&);

}  // namespace fpga_stencil
