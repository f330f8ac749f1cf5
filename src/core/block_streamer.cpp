#include "core/block_streamer.hpp"

#include <type_traits>
#include <utility>

#include "common/stopwatch.hpp"
#include "kernels/array_kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

/// Cancellation poll cadence: every 512 vectors, plus q = 0 so an
/// already-tripped token aborts before the block does any work. Cheap
/// (one branch per vector) yet far finer than the one-block-time bound
/// the engine promises for cancel().
constexpr std::int64_t kCancelCheckMask = 511;

/// The fallback counter naming why a block must run on the interpreter,
/// or null when it runs on the array kernel. The kernel takes any tap
/// set, radius, parvec and boundary condition, so the only reason left
/// is an explicit opt-out.
const char* fallback_reason(const AcceleratorConfig& cfg) {
  if (!cfg.use_specialized_kernels) return "kernels.dispatch_fallback.disabled";
  return nullptr;
}

/// Runs the block on the array kernel, or on the interpreter when
/// fallback_reason names one. Telemetry, when attached: dispatch and
/// fallback counters (total and per reason) plus a retired-cell
/// throughput gauge for kernel blocks.
template <typename GridT>
void dispatch_block(std::vector<ProcessingElement>& pes,
                    const BlockingPlan& plan, const BlockExtent& blk,
                    const GridT& in, GridT& out, int steps,
                    std::span<float> va, std::span<float> vb, RunStats& stats,
                    const CancellationToken* cancel) {
  FPGASTENCIL_ASSERT(!pes.empty(), "block streamed without a PE chain");
  const TapSet& taps = pes.front().taps();
  Telemetry* const tel = plan.config.telemetry;
  if (const char* reason = fallback_reason(plan.config)) {
    if (tel) {
      tel->metrics().counter("kernels.dispatch_fallback").add(1);
      tel->metrics().counter(reason).add(1);
    }
    stream_block_generic(pes, plan, blk, in, out, steps, va, vb, stats,
                         cancel);
    return;
  }
  const auto run_kernel = [&] {
    if constexpr (std::is_same_v<GridT, Grid2D<float>>) {
      run_block_2d(plan, blk, taps, in, out, steps, stats, cancel);
    } else {
      run_block_3d(plan, blk, taps, in, out, steps, stats, cancel);
    }
  };
  if (!tel) {
    run_kernel();
    return;
  }
  tel->metrics().counter("kernels.dispatch_specialized").add(1);
  const std::int64_t written_before = stats.cells_written;
  const Stopwatch clock;
  run_kernel();
  const std::int64_t ns = clock.nanoseconds();
  if (ns > 0) {
    tel->metrics().gauge("kernels.cells_per_s")
        .set((stats.cells_written - written_before) * 1'000'000'000 / ns);
  }
}

}  // namespace

void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid2D<float>& in, Grid2D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel) {
  dispatch_block(pes, plan, blk, in, out, steps, va, vb, stats, cancel);
}

void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid3D<float>& in, Grid3D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel) {
  dispatch_block(pes, plan, blk, in, out, steps, va, vb, stats, cancel);
}

void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid2D<float>& in, Grid2D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats, const CancellationToken* cancel) {
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t halo = cfg.halo();
  const std::int64_t drain = cfg.stream_drain();
  const std::int64_t csize = cfg.csize_x();
  // Periodic boundaries wrap-extend the stream instead of taking a border
  // select-chain in the PEs: every fetch wraps modulo the grid, and the
  // streamed dimension is pre-padded with `drain` ghost rows so row 0's
  // backward influence cone (up to partime*radius rows) is fed with real
  // wrapped data before the first retired row emerges. The write index
  // shifts by the same pre-pad, so retired coordinates are unchanged.
  const bool periodic = !pes.empty() && pes.front().taps().boundary().kind ==
                                            BoundaryKind::periodic;
  const std::int64_t prepad = periodic ? drain : 0;
  const std::int64_t vectors_per_block =
      (plan.cells_streamed_per_pass + prepad * cfg.bsize_x) / cfg.parvec;

  BlockContext ctx;
  ctx.block_x0 = blk.x0;
  ctx.nx = in.nx();
  ctx.ny = in.ny();
  for (auto& pe : pes) {
    ctx.passthrough = pe.stage() >= steps;
    pe.begin_block(ctx);
  }

  // The collapsed loop: one global vector index drives the read kernel,
  // every PE, and the write kernel for this block pass.
  for (std::int64_t q = 0; q < vectors_per_block; ++q) {
    if (cancel && (q & kCancelCheckMask) == 0) cancel->throw_if_cancelled();
    // --- read kernel: fetch parvec cells (zero outside the grid) ---
    const std::int64_t flat_in = q * cfg.parvec;
    const std::int64_t y_in = flat_in / cfg.bsize_x;
    const std::int64_t x_rel_in = flat_in % cfg.bsize_x;
    if (periodic) {
      const std::int64_t ys = wrap_index(y_in - prepad, in.ny());
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xs = wrap_index(blk.x0 + x_rel_in + l, in.nx());
        va[size_t(l)] = in.at(xs, ys);
      }
    } else {
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xg = blk.x0 + x_rel_in + l;
        va[size_t(l)] = (xg >= 0 && xg < in.nx() && y_in < in.ny())
                            ? in.at(xg, y_in)
                            : 0.0f;
      }
    }
    stats.cells_streamed += cfg.parvec;

    // --- compute: chain of PEs ---
    std::span<float> cur = va;
    std::span<float> nxt = vb;
    for (auto& pe : pes) {
      pe.process_vector(q, cur, nxt);
      std::swap(cur, nxt);
    }

    // --- write kernel: retire valid cells ---
    const std::int64_t yg = y_in - drain - prepad;  // total chain lag
    if (yg < 0 || yg >= in.ny()) continue;
    for (std::int64_t l = 0; l < cfg.parvec; ++l) {
      const std::int64_t x_rel = x_rel_in + l;
      const std::int64_t xg = blk.x0 + x_rel;
      if (x_rel >= halo && x_rel < halo + csize && xg < blk.valid_x_end) {
        out.at(xg, yg) = cur[size_t(l)];
        ++stats.cells_written;
      }
    }
  }
  stats.vectors_processed += vectors_per_block;
  stats.cells_computed += vectors_per_block * cfg.parvec * steps;
  ++stats.block_passes;
}

void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid3D<float>& in, Grid3D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats, const CancellationToken* cancel) {
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t halo = cfg.halo();
  const std::int64_t drain = cfg.stream_drain();
  const std::int64_t csx = cfg.csize_x();
  const std::int64_t csy = cfg.csize_y();
  const std::int64_t plane = cfg.row_cells();
  // Periodic wrap-extended stream: see the 2D overload. The streamed
  // dimension here is z, so the pre-pad is `drain` ghost planes.
  const bool periodic = !pes.empty() && pes.front().taps().boundary().kind ==
                                            BoundaryKind::periodic;
  const std::int64_t prepad = periodic ? drain : 0;
  const std::int64_t vectors_per_block =
      (plan.cells_streamed_per_pass + prepad * plane) / cfg.parvec;

  BlockContext ctx;
  ctx.block_x0 = blk.x0;
  ctx.block_y0 = blk.y0;
  ctx.nx = in.nx();
  ctx.ny = in.ny();
  ctx.nz = in.nz();
  for (auto& pe : pes) {
    ctx.passthrough = pe.stage() >= steps;
    pe.begin_block(ctx);
  }

  for (std::int64_t q = 0; q < vectors_per_block; ++q) {
    if (cancel && (q & kCancelCheckMask) == 0) cancel->throw_if_cancelled();
    // --- read kernel ---
    const std::int64_t flat_in = q * cfg.parvec;
    const std::int64_t z_in = flat_in / plane;
    const std::int64_t rem_in = flat_in % plane;
    const std::int64_t y_rel_in = rem_in / cfg.bsize_x;
    const std::int64_t x_rel_in = rem_in % cfg.bsize_x;
    const std::int64_t yg_in = blk.y0 + y_rel_in;
    if (periodic) {
      const std::int64_t zs = wrap_index(z_in - prepad, in.nz());
      const std::int64_t ys = wrap_index(yg_in, in.ny());
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xs = wrap_index(blk.x0 + x_rel_in + l, in.nx());
        va[size_t(l)] = in.at(xs, ys, zs);
      }
    } else {
      const bool row_in_grid = z_in < in.nz() && yg_in >= 0 && yg_in < in.ny();
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xg = blk.x0 + x_rel_in + l;
        va[size_t(l)] = (row_in_grid && xg >= 0 && xg < in.nx())
                            ? in.at(xg, yg_in, z_in)
                            : 0.0f;
      }
    }
    stats.cells_streamed += cfg.parvec;

    // --- compute ---
    std::span<float> cur = va;
    std::span<float> nxt = vb;
    for (auto& pe : pes) {
      pe.process_vector(q, cur, nxt);
      std::swap(cur, nxt);
    }

    // --- write kernel ---
    const std::int64_t zg = z_in - drain - prepad;
    if (zg < 0 || zg >= in.nz()) continue;
    const std::int64_t y_rel = y_rel_in;
    const std::int64_t yg = blk.y0 + y_rel;
    if (y_rel < halo || y_rel >= halo + csy || yg >= blk.valid_y_end) continue;
    for (std::int64_t l = 0; l < cfg.parvec; ++l) {
      const std::int64_t x_rel = x_rel_in + l;
      const std::int64_t xg = blk.x0 + x_rel;
      if (x_rel >= halo && x_rel < halo + csx && xg < blk.valid_x_end) {
        out.at(xg, yg, zg) = cur[size_t(l)];
        ++stats.cells_written;
      }
    }
  }
  stats.vectors_processed += vectors_per_block;
  stats.cells_computed += vectors_per_block * cfg.parvec * steps;
  ++stats.block_passes;
}

}  // namespace fpga_stencil
