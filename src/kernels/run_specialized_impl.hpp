// Definition of run_specialized (declared in run_specialized.hpp).
//
// Included only by the explicit-instantiation TUs (star_kernels_*.cpp,
// box_kernels_*.cpp); everything else links against those instantiations
// through the extern templates.
//
// Specialized kernels are the clamp fast path: the border select-chains
// below hard-code clamp-toward-grid per axis. Tap sets carrying any other
// BoundaryCondition never dispatch here -- block_streamer::try_specialized
// and PlanCache's specialized-kernel resolution both gate on
// taps.boundary().is_clamp(), routing the generic interpreter instead
// (docs/PROGRAMS.md).
//
// ## Algorithm: array-form rolling window
//
// The interpreter emulates the FPGA datapath literally: one flat
// shift register per PE, one parvec-wide vector per cycle, per-tap
// bounds-checked ring reads. A specialized kernel computes the same
// mathematical recurrence in array form: per temporal stage a rolling
// window (PlanarShiftRegister) of the last 2*Rad + 1 stream planes
// (z-planes in 3D, x-rows in 2D), advanced one stream index per outer
// iteration:
//
//   for z in [0, nz + steps*Rad):          // streamed dim + pipeline drain
//     read  : load stage 0's cone of input plane z into its window
//             (zero off-grid)
//     update: for k = 1..steps, plane p = z - k*Rad of stage k becomes
//             computable (its +Rad source in stage k-1 just landed);
//             compute its cone row by row from stage k-1's window
//     write : plane z - steps*Rad of stage `steps` is final; retire its
//             valid compute region into `out`
//
// Per cell the arithmetic is the interpreter's exactly: taps accumulate
// in canonical order (acc = c0*t0; acc += ct*tt), every tap clamps toward
// the grid per axis, out-of-grid centers yield zero. Stream-dim and row
// clamping are uniform over a row, so they are hoisted: per plane a table
// of z-clamped source-plane pointers, per row a table of y-clamped row
// deltas, leaving only x-clamping in the lane loop -- and only in the
// border segment. The interior segment (no tap can clamp) runs in
// ParVec-wide chunks with tap-outer/lane-inner loops whose trip counts
// are constexpr; each lane carries an independent dependency chain in the
// interpreter's op order, so vectorization cannot change results.
//
// ## Cone trimming (influence cone)
//
// A retired cell depends on stage-k cells only within its influence
// cone: by induction, the block-local range
//
//   [w_lo - e_k, w_hi + e_k),   e_k = (steps - k)*Rad
//
// per blocked axis, where [w_lo, w_hi) is the block's retire window
// (each stage widens the cone by at most Rad; clamping only pulls reads
// inward, toward cells that are themselves in the cone). Stage k
// (k = 1..steps) therefore computes exactly that range, and the input
// load (stage 0) loads it with e_0 = steps*Rad -- so stage k's cone reads
// exactly stage k-1's cone, and a short tail pass (steps < partime) also
// skips the unused part of the halo. Off-grid centers inside a cone stay
// zero; cells outside every cone are never written and never read. On
// the r4 144x144 partime-4 acceptance geometry this evaluates 1.2012
// stage-cells per retired update instead of the 1.5625 a full-block pass
// (the FPGA's fixed pipeline) evaluates; RunStats::cells_computed counts
// them.
//
// Since halo = partime*radius >= steps*Rad, every cone with k >= 1 stays
// at least Rad away from the block edge, so the zero padding (Rad cells
// per side of each blocked axis) is never read by a computed cell, and
// where the interpreter's ring reads wrapped rows near the block edge
// both implementations compute only don't-care cells. All cells inside a
// cone are computed from genuinely loaded input with the exact
// interpreter arithmetic. tests/kernels_test.cpp verifies the retired
// output bit-for-bit against the interpreter for every envelope entry.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>

#include "common/cancellation.hpp"
#include "common/math_util.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid.hpp"
#include "kernels/kernel_workspace.hpp"
#include "kernels/run_specialized.hpp"
#include "pipeline/shift_register.hpp"

// The lane loops vectorize at -O3 as-is (constexpr trip count, no
// cross-lane dependencies); FPGASTENCIL_NATIVE_ARCH additionally compiles
// this library with -fopenmp-simd and defines FPGASTENCIL_OMP_SIMD so the
// pragma asserts the independence explicitly.
#if defined(FPGASTENCIL_OMP_SIMD)
#define FPGASTENCIL_SIMD_LOOP _Pragma("omp simd")
#else
#define FPGASTENCIL_SIMD_LOOP
#endif

namespace fpga_stencil {
namespace kernels_detail {

/// Canonical tap offsets for <Shape, Rad, Dims>, split per axis. Must
/// stay in lockstep with StarStencil::to_taps / make_box_stencil (the
/// registry's structural match guarantees a dispatched TapSet has exactly
/// these offsets in this order, so `coeffs[t]` belongs to offset t).
template <StencilShape Shape, int Rad, int Dims>
struct TapPattern {
  static constexpr int kSide = 2 * Rad + 1;
  static constexpr int kCount =
      Shape == StencilShape::kStar
          ? 1 + 2 * Dims * Rad
          : (Dims == 3 ? kSide * kSide * kSide : kSide * kSide);

  struct Offsets {
    std::array<int, kCount> dx{}, dy{}, dz{};
  };

  static constexpr Offsets make_offsets() {
    Offsets o{};
    int t = 0;
    if constexpr (Shape == StencilShape::kStar) {
      o.dx[t] = 0;
      ++t;  // center
      for (int i = 1; i <= Rad; ++i) {
        o.dx[t++] = -i;                  // West
        o.dx[t++] = +i;                  // East
        o.dy[t++] = -i;                  // South
        o.dy[t++] = +i;                  // North
        if constexpr (Dims == 3) {
          o.dz[t++] = -i;                // Below
          o.dz[t++] = +i;                // Above
        }
      }
    } else {
      const int zr = Dims == 3 ? Rad : 0;
      for (int dz = -zr; dz <= zr; ++dz) {
        for (int dy = -Rad; dy <= Rad; ++dy) {
          for (int dx = -Rad; dx <= Rad; ++dx) {
            o.dx[t] = dx;
            o.dy[t] = dy;
            o.dz[t] = dz;
            ++t;
          }
        }
      }
    }
    return o;
  }

  static constexpr Offsets kOffsets = make_offsets();
};

/// One cell with per-tap x-clamping (grid-boundary columns); y/z
/// clamping is already folded into the `rows` pointers.
template <int NTaps>
[[nodiscard]] inline float compute_border_cell(std::int64_t x, std::int64_t xg,
                                               std::int64_t nx,
                                               const float* const* rows,
                                               const int* dxs,
                                               const float* cf) {
  std::int64_t d = clamp_index(xg + dxs[0], 0, nx - 1) - xg;
  float acc = cf[0] * rows[0][x + d];
  for (int t = 1; t < NTaps; ++t) {
    d = clamp_index(xg + dxs[t], 0, nx - 1) - xg;
    acc += cf[t] * rows[t][x + d];
  }
  return acc;
}

/// Block-local [lo, hi) along one blocked axis.
struct Span {
  std::int64_t lo = 0, hi = 0;
  [[nodiscard]] bool empty() const { return lo >= hi; }
};

/// Stage k's influence cone along one blocked axis: the retire window
/// `win` widened by (steps - k)*Rad per side (see the header comment).
template <int Rad>
[[nodiscard]] inline Span stage_cone(Span win, int steps, int k) {
  const std::int64_t e = std::int64_t(steps - k) * Rad;
  return {win.lo - e, win.hi + e};
}

/// The part of non-empty `s` whose global index (origin + local) lies in
/// [0, n).
[[nodiscard]] inline Span in_grid(Span s, std::int64_t origin,
                                  std::int64_t n) {
  const std::int64_t lo = std::clamp(-origin, s.lo, s.hi);
  return {lo, std::clamp(n - origin, lo, s.hi)};
}

/// Columns `cols` (block-local, non-empty) of one output row of one
/// stage: zeros where the center is off-grid, x-clamped scalar cells at
/// the grid's x boundaries, ParVec-wide vectorized chunks in the
/// interior. `dst` and each `rows[t]` point at block-local x == 0 of rows
/// padded by >= Rad cells per side. Returns the in-grid cells computed.
template <int NTaps, int ParVec>
inline std::int64_t compute_row(float* dst, Span cols, std::int64_t x0,
                                std::int64_t nx, std::int64_t rad,
                                const float* const* rows, const int* dxs,
                                const float* cf) {
  const Span grid = in_grid(cols, x0, nx);
  std::fill(dst + cols.lo, dst + grid.lo, 0.0f);
  std::fill(dst + grid.hi, dst + cols.hi, 0.0f);
  // Columns where some tap could cross the grid's x boundary.
  const std::int64_t il = std::clamp<std::int64_t>(rad - x0, grid.lo, grid.hi);
  const std::int64_t ih =
      std::clamp<std::int64_t>(nx - rad - x0, il, grid.hi);
  std::int64_t x = grid.lo;
  for (; x < il; ++x) {
    dst[x] = compute_border_cell<NTaps>(x, x0 + x, nx, rows, dxs, cf);
  }
  for (; x + ParVec <= ih; x += ParVec) {
    float acc[ParVec];
    const float* r0 = rows[0] + x + dxs[0];
    FPGASTENCIL_SIMD_LOOP
    for (int l = 0; l < ParVec; ++l) acc[l] = cf[0] * r0[l];
    for (int t = 1; t < NTaps; ++t) {
      const float* rt = rows[t] + x + dxs[t];
      const float ct = cf[t];
      FPGASTENCIL_SIMD_LOOP
      for (int l = 0; l < ParVec; ++l) acc[l] += ct * rt[l];
    }
    for (int l = 0; l < ParVec; ++l) dst[x + l] = acc[l];
  }
  // Chunk remainder: interior columns never clamp, so the border form
  // degenerates to the identical operation sequence.
  for (; x < grid.hi; ++x) {
    dst[x] = compute_border_cell<NTaps>(x, x0 + x, nx, rows, dxs, cf);
  }
  return grid.hi - grid.lo;
}

/// Loads columns `cols` of input row `src` (null when the row is
/// off-grid) into `dst`, zero outside the grid.
inline void load_row(float* dst, Span cols, const float* src,
                     std::int64_t x0, std::int64_t nx) {
  const Span grid = src ? in_grid(cols, x0, nx) : Span{cols.lo, cols.lo};
  std::fill(dst + cols.lo, dst + grid.lo, 0.0f);
  if (!grid.empty()) {
    std::memcpy(dst + grid.lo, src + (x0 + grid.lo),
                std::size_t(grid.hi - grid.lo) * sizeof(float));
  }
  std::fill(dst + grid.hi, dst + cols.hi, 0.0f);
}

/// 2D block pass: x blocked, y streamed; window planes are single rows.
template <StencilShape Shape, int Rad, int ParVec>
void run_block(const BlockingPlan& plan, const BlockExtent& blk,
               const Grid2D<float>& in, Grid2D<float>& out, int steps,
               const float* cf, RunStats& stats,
               const CancellationToken* cancel) {
  using Pattern = TapPattern<Shape, Rad, 2>;
  constexpr int N = Pattern::kCount;
  constexpr auto& offs = Pattern::kOffsets;
  constexpr std::int64_t W = 2 * Rad + 1;

  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t bx = cfg.bsize_x;
  const std::int64_t nx = in.nx(), ny = in.ny();
  const std::int64_t x0 = blk.x0;
  const std::int64_t prow = bx + 2 * Rad;  // padded row stride

  const std::int64_t halo = cfg.halo();
  const Span wx{halo, std::min(halo + cfg.csize_x(), blk.valid_x_end - x0)};
  // Nothing retires, so every cone is don't-care (and may be empty).
  if (wx.empty()) return;

  KernelWorkspace& ws = tls_kernel_workspace();
  const std::size_t slab =
      std::size_t(steps + 1) * std::size_t(W) * std::size_t(prow);
  float* base = ws.ensure(slab);
  // Only cone cells are ever read (header comment); zeroing the rest keeps
  // the slab's contents independent of which block ran on this thread
  // before.
  std::fill(base, base + slab, 0.0f);
  const auto window = [&](int stage) {
    return PlanarShiftRegister<float>(base + std::size_t(stage) * W * prow, W,
                                      prow);
  };
  // Block-local x == 0 of the window row holding stream row `r`.
  const auto content = [&](int stage, std::int64_t r) {
    return window(stage).plane(r) + Rad;
  };

  const Span load = stage_cone<Rad>(wx, steps, 0);
  std::int64_t computed = 0;
  const std::int64_t ymax = ny + std::int64_t(steps) * Rad;
  for (std::int64_t y = 0; y < ymax; ++y) {
    if (cancel) cancel->throw_if_cancelled();
    // --- read: load stage 0's cone of input row y (zero off-grid) ---
    load_row(content(0, y), load, y < ny ? &in.at(0, y) : nullptr, x0, nx);

    // --- update: stage-k cone rows that just became computable ---
    for (int k = 1; k <= steps; ++k) {
      const std::int64_t r = y - std::int64_t(k) * Rad;
      if (r < 0) break;  // deeper stages lag even further
      const Span cx = stage_cone<Rad>(wx, steps, k);
      float* dst = content(k, r);
      if (r >= ny) {  // off-grid center row: zeros, overwriting the slot
        std::fill(dst + cx.lo, dst + cx.hi, 0.0f);
        continue;
      }
      const float* rows[N];
      for (int t = 0; t < N; ++t) {
        const std::int64_t src =
            clamp_index(r + offs.dy[t], 0, ny - 1);
        rows[t] = content(k - 1, src);
      }
      computed += compute_row<N, ParVec>(dst, cx, x0, nx, Rad, rows,
                                         offs.dx.data(), cf);
    }

    // --- write: retire the finished row ---
    const std::int64_t wout = y - std::int64_t(steps) * Rad;
    if (wout < 0 || wout >= ny) continue;
    std::memcpy(&out.at(x0 + wx.lo, wout), content(steps, wout) + wx.lo,
                std::size_t(wx.hi - wx.lo) * sizeof(float));
    stats.cells_written += wx.hi - wx.lo;
  }
  stats.cells_computed += computed;
}

/// 3D block pass: x/y blocked, z streamed; window planes are padded
/// (bsize_y + 2*Rad) x (bsize_x + 2*Rad) tiles.
template <StencilShape Shape, int Rad, int ParVec>
void run_block(const BlockingPlan& plan, const BlockExtent& blk,
               const Grid3D<float>& in, Grid3D<float>& out, int steps,
               const float* cf, RunStats& stats,
               const CancellationToken* cancel) {
  using Pattern = TapPattern<Shape, Rad, 3>;
  constexpr int N = Pattern::kCount;
  constexpr auto& offs = Pattern::kOffsets;
  constexpr std::int64_t W = 2 * Rad + 1;

  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t bx = cfg.bsize_x, by = cfg.bsize_y;
  const std::int64_t nx = in.nx(), ny = in.ny(), nz = in.nz();
  const std::int64_t x0 = blk.x0, y0 = blk.y0;
  const std::int64_t prow = bx + 2 * Rad;
  const std::int64_t plane_cells = prow * (by + 2 * Rad);

  const std::int64_t halo = cfg.halo();
  const Span wx{halo, std::min(halo + cfg.csize_x(), blk.valid_x_end - x0)};
  const Span wy{halo, std::min(halo + cfg.csize_y(), blk.valid_y_end - y0)};
  // Nothing retires, so every cone is don't-care (and may be empty).
  if (wx.empty() || wy.empty()) return;

  KernelWorkspace& ws = tls_kernel_workspace();
  const std::size_t slab =
      std::size_t(steps + 1) * std::size_t(W) * std::size_t(plane_cells);
  float* base = ws.ensure(slab);
  std::fill(base, base + slab, 0.0f);
  const auto window = [&](int stage) {
    return PlanarShiftRegister<float>(
        base + std::size_t(stage) * W * plane_cells, W, plane_cells);
  };
  // Block-local (0, y_rel) of the window plane holding stream plane `p`.
  const auto content = [&](int stage, std::int64_t p, std::int64_t y_rel) {
    return window(stage).plane(p) + (y_rel + Rad) * prow + Rad;
  };

  const Span load_x = stage_cone<Rad>(wx, steps, 0);
  const Span load_y = stage_cone<Rad>(wy, steps, 0);
  std::int64_t computed = 0;
  const std::int64_t zmax = nz + std::int64_t(steps) * Rad;
  for (std::int64_t z = 0; z < zmax; ++z) {
    if (cancel) cancel->throw_if_cancelled();
    // --- read: load stage 0's cone of input plane z (zero off-grid) ---
    for (std::int64_t y_rel = load_y.lo; y_rel < load_y.hi; ++y_rel) {
      const std::int64_t yg = y0 + y_rel;
      const bool on_grid = z < nz && yg >= 0 && yg < ny;
      load_row(content(0, z, y_rel), load_x,
               on_grid ? &in.at(0, yg, z) : nullptr, x0, nx);
    }

    // --- update: stage-k cone planes that just became computable ---
    for (int k = 1; k <= steps; ++k) {
      const std::int64_t p = z - std::int64_t(k) * Rad;
      if (p < 0) break;
      const Span cx = stage_cone<Rad>(wx, steps, k);
      const Span cy = stage_cone<Rad>(wy, steps, k);
      if (p >= nz) {  // off-grid center plane: zeros, overwriting the slot
        for (std::int64_t y_rel = cy.lo; y_rel < cy.hi; ++y_rel) {
          float* row = content(k, p, y_rel);
          std::fill(row + cx.lo, row + cx.hi, 0.0f);
        }
        continue;
      }
      // z-clamped source planes of stage k-1; the window provably still
      // holds every clamped index (clamping pulls toward the interior).
      std::array<std::int64_t, W> zsel;
      for (std::int64_t j = 0; j < W; ++j) {
        zsel[std::size_t(j)] = clamp_index(p + j - Rad, 0, nz - 1);
      }
      for (std::int64_t y_rel = cy.lo; y_rel < cy.hi; ++y_rel) {
        float* dst = content(k, p, y_rel);
        const std::int64_t yg = y0 + y_rel;
        if (yg < 0 || yg >= ny) {
          std::fill(dst + cx.lo, dst + cx.hi, 0.0f);
          continue;
        }
        std::array<std::int64_t, W> ydel;
        for (std::int64_t j = 0; j < W; ++j) {
          ydel[std::size_t(j)] = clamp_index(yg + j - Rad, 0, ny - 1) - yg;
        }
        const float* rows[N];
        for (int t = 0; t < N; ++t) {
          rows[t] = content(k - 1, zsel[std::size_t(offs.dz[t] + Rad)],
                            y_rel + ydel[std::size_t(offs.dy[t] + Rad)]);
        }
        computed += compute_row<N, ParVec>(dst, cx, x0, nx, Rad, rows,
                                           offs.dx.data(), cf);
      }
    }

    // --- write: retire the finished plane ---
    const std::int64_t pout = z - std::int64_t(steps) * Rad;
    if (pout < 0 || pout >= nz) continue;
    for (std::int64_t y_rel = wy.lo; y_rel < wy.hi; ++y_rel) {
      std::memcpy(&out.at(x0 + wx.lo, y0 + y_rel, pout),
                  content(steps, pout, y_rel) + wx.lo,
                  std::size_t(wx.hi - wx.lo) * sizeof(float));
      stats.cells_written += wx.hi - wx.lo;
    }
  }
  stats.cells_computed += computed;
}

}  // namespace kernels_detail

template <StencilShape Shape, int Rad, int Dims, int ParVec>
void run_specialized(const BlockingPlan& plan, const BlockExtent& blk,
                     const GridOf<Dims>& in, GridOf<Dims>& out, int steps,
                     const float* coeffs, RunStats& stats,
                     const CancellationToken* cancel) {
  kernels_detail::run_block<Shape, Rad, ParVec>(plan, blk, in, out, steps,
                                                coeffs, stats, cancel);
  stats.cells_streamed += plan.cells_streamed_per_pass;
  stats.vectors_processed += plan.cells_streamed_per_pass / plan.config.parvec;
  ++stats.block_passes;
}

}  // namespace fpga_stencil
