// Definition of the runtime-tap array kernel (declared in array_kernel.hpp).
//
// ## Algorithm: array-form rolling window
//
// The interpreter emulates the FPGA datapath literally: one flat
// shift register per PE, one parvec-wide vector per cycle, per-tap
// bounds-checked ring reads. The array kernel computes the same
// mathematical recurrence in array form: per temporal stage a rolling
// window (PlanarShiftRegister) of the last 2*R + 1 stream planes
// (z-planes in 3D, x-rows in 2D), R = taps.radius(), advanced one stream
// index per outer iteration:
//
//   for z in [0, nz + steps*R):            // streamed dim + pipeline drain
//     read  : load stage 0's cone of input plane z into its window
//             (zero off-grid)
//     update: for k = 1..steps, plane p = z - k*R of stage k becomes
//             computable (its +R source in stage k-1 just landed);
//             compute its cone row by row from stage k-1's window
//     write : plane z - steps*R of stage `steps` is final; retire its
//             valid compute region into `out`
//
// Per cell the arithmetic is the interpreter's exactly: taps accumulate
// in tap order (acc = c0*t0; acc += ct*tt), every tap clamps toward the
// grid per axis, out-of-grid centers yield zero. Stream-dim and row
// clamping are uniform over a row, so they are hoisted: per (stage,
// plane) the 2R+1 clamped source planes (3D) / rows (2D), per row the
// 2R+1 y-clamped row deltas, and from those one source pointer per tap,
// leaving only x-clamping in the lane loop -- and only in the border
// segment. The interior segment (no tap can clamp) runs in kChunk-wide
// chunks held in explicit 4-lane vector accumulators; each lane carries
// an independent dependency chain in the interpreter's op order, and the
// baseline ISA has no FMA to contract the separate multiply and add, so
// vectorization cannot change results.
//
// ## Cone trimming (influence cone)
//
// A retired cell depends on stage-k cells only within its influence
// cone: every tap has |d| <= R per axis, so by induction the block-local
// range
//
//   [w_lo - e_k, w_hi + e_k),   e_k = (steps - k)*R
//
// per blocked axis, where [w_lo, w_hi) is the block's retire window
// (each stage widens the cone by at most R; clamping only pulls reads
// inward, toward cells that are themselves in the cone). Stage k
// (k = 1..steps) therefore computes exactly that range, and the input
// load (stage 0) loads it with e_0 = steps*R -- so stage k's cone reads
// only stage k-1's cone, and a short tail pass (steps < partime) also
// skips the unused part of the halo. Off-grid centers inside a cone stay
// zero; cells outside every cone are never written and never read.
//
// Since halo = partime*cfg.radius >= steps*R, every cone with k >= 1
// stays at least R away from the block edge, so the zero padding (R cells
// per side of each blocked axis) is never read by a computed cell, and
// where the interpreter's ring reads wrapped rows near the block edge
// both implementations compute only don't-care cells.
#include "kernels/array_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/cancellation.hpp"
#include "common/math_util.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid.hpp"
#include "pipeline/shift_register.hpp"

namespace fpga_stencil {
namespace {

/// Four floats with element-wise arithmetic (GCC vector extension). A
/// plain `float acc[16]` lane loop over a runtime tap count is split by
/// GCC into uneven vector/scalar pieces and runs markedly slower
/// (docs/KERNELS.md); explicit vectors pin the shape.
using Vec4 = float __attribute__((vector_size(16)));
constexpr std::int64_t kVecLanes = 4;
/// Accumulators per interior chunk, and the chunk width in columns.
constexpr int kChunkVecs = 4;
constexpr std::int64_t kChunk = kChunkVecs * kVecLanes;

inline Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// Per-thread scratch. A block pass needs one slab of (steps + 1)
/// rolling windows of 2R + 1 planes each, plus the tap list staged as
/// flat arrays. Allocating per block would dominate small blocks and show
/// up as malloc contention under the block-parallel pool, so each thread
/// keeps one workspace that grows monotonically to the largest block it
/// has seen.
struct Workspace {
  std::vector<float> slab;
  // The tap list in accumulation order, one entry per tap.
  std::vector<std::int64_t> dx;
  std::vector<int> sy, sz;  ///< dy + R, dz + R: index into the source tables
  std::vector<float> cf;
  /// Per output row: each tap's source row at block-local x == 0,
  /// pre-shifted by the tap's dx.
  std::vector<const float*> src;
  /// Per (stage, plane): the 2R + 1 clamped source planes / rows.
  std::vector<const float*> planes;
  /// Per output row (3D): the 2R + 1 y-clamped row deltas.
  std::vector<std::int64_t> ydel;

  void stage(const TapSet& taps) {
    const std::size_t n = taps.size();
    const std::int64_t r = taps.radius();
    dx.resize(n);
    sy.resize(n);
    sz.resize(n);
    cf.resize(n);
    src.resize(n);
    planes.resize(std::size_t(2 * r + 1));
    ydel.resize(std::size_t(2 * r + 1));
    for (std::size_t t = 0; t < n; ++t) {
      const Tap& tap = taps.taps()[t];
      dx[t] = tap.dx;
      sy[t] = int(tap.dy + r);
      sz[t] = int(tap.dz + r);
      cf[t] = tap.coeff;
    }
  }

  /// A zeroed slab of `cells` floats. Only cone cells are ever read
  /// (header comment); zeroing the rest keeps the slab's contents
  /// independent of which block ran on this thread before.
  float* zeroed_slab(std::size_t cells) {
    if (slab.size() < cells) slab.resize(cells);
    std::fill(slab.begin(), slab.begin() + std::ptrdiff_t(cells), 0.0f);
    return slab.data();
  }
};

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

/// One cell with per-tap x-clamping (grid-boundary columns); y/z
/// clamping is already folded into the `src` pointers.
inline float border_cell(const Workspace& ws, std::int64_t x,
                         std::int64_t xg, std::int64_t nx) {
  const auto tap = [&](std::size_t t) {
    const std::int64_t d = clamp_index(xg + ws.dx[t], 0, nx - 1) - xg;
    return ws.src[t][x + d - ws.dx[t]];
  };
  float acc = ws.cf[0] * tap(0);
  for (std::size_t t = 1; t < ws.cf.size(); ++t) acc += ws.cf[t] * tap(t);
  return acc;
}

/// Columns [x, x + 4*V) of an interior row segment (no tap clamps).
template <int V>
inline void interior_chunk(const Workspace& ws, float* dst, std::int64_t x) {
  Vec4 acc[V];
  const Vec4 c0 = {ws.cf[0], ws.cf[0], ws.cf[0], ws.cf[0]};
  const float* p0 = ws.src[0] + x;
  for (int v = 0; v < V; ++v) acc[v] = c0 * load4(p0 + kVecLanes * v);
  for (std::size_t t = 1; t < ws.cf.size(); ++t) {
    const Vec4 c = {ws.cf[t], ws.cf[t], ws.cf[t], ws.cf[t]};
    const float* p = ws.src[t] + x;
    for (int v = 0; v < V; ++v) acc[v] += c * load4(p + kVecLanes * v);
  }
  for (int v = 0; v < V; ++v) store4(dst + x + kVecLanes * v, acc[v]);
}

/// Block-local [lo, hi) along one blocked axis.
struct Span {
  std::int64_t lo = 0, hi = 0;
  [[nodiscard]] bool empty() const { return lo >= hi; }
};

/// Stage k's influence cone along one blocked axis: the retire window
/// `win` widened by (steps - k)*r per side (see the header comment).
[[nodiscard]] inline Span stage_cone(Span win, std::int64_t r, int steps,
                                     int k) {
  const std::int64_t e = std::int64_t(steps - k) * r;
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
/// stage from the staged `ws.src` rows: zeros where the center is
/// off-grid, x-clamped scalar cells at the grid's x boundaries,
/// vectorized chunks in the interior. `dst` points at block-local x == 0
/// of a row padded by >= r cells per side. Returns the in-grid cells
/// computed.
inline std::int64_t compute_row(const Workspace& ws, float* dst, Span cols,
                                std::int64_t x0, std::int64_t nx,
                                std::int64_t r) {
  const Span grid = in_grid(cols, x0, nx);
  std::fill(dst + cols.lo, dst + grid.lo, 0.0f);
  std::fill(dst + grid.hi, dst + cols.hi, 0.0f);
  // Columns where some tap could cross the grid's x boundary.
  const std::int64_t il = std::clamp<std::int64_t>(r - x0, grid.lo, grid.hi);
  const std::int64_t ih = std::clamp<std::int64_t>(nx - r - x0, il, grid.hi);
  std::int64_t x = grid.lo;
  for (; x < il; ++x) dst[x] = border_cell(ws, x, x0 + x, nx);
  for (; x + kChunk <= ih; x += kChunk) {
    interior_chunk<kChunkVecs>(ws, dst, x);
  }
  for (; x + kVecLanes <= ih; x += kVecLanes) interior_chunk<1>(ws, dst, x);
  // Chunk remainder: interior columns never clamp, so the border form
  // degenerates to the identical operation sequence.
  for (; x < grid.hi; ++x) dst[x] = border_cell(ws, x, x0 + x, nx);
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

void block_pass(const BlockingPlan& plan, const BlockExtent& blk,
                const TapSet& taps, const Grid2D<float>& in,
                Grid2D<float>& out, int steps, RunStats& stats,
                const CancellationToken* cancel) {
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t r = taps.radius();
  const std::int64_t w = 2 * r + 1;
  const std::int64_t nx = in.nx(), ny = in.ny();
  const std::int64_t x0 = blk.x0;
  const std::int64_t prow = cfg.bsize_x + 2 * r;  // padded row stride

  const std::int64_t halo = cfg.halo();
  const Span wx{halo, std::min(halo + cfg.csize_x(), blk.valid_x_end - x0)};
  // Nothing retires, so every cone is don't-care (and may be empty).
  if (wx.empty()) return;

  Workspace& ws = tls_workspace();
  ws.stage(taps);
  float* const base = ws.zeroed_slab(std::size_t((steps + 1) * w * prow));
  const auto window = [&](int stage) {
    return PlanarShiftRegister<float>(base + stage * w * prow, w, prow);
  };
  // Block-local x == 0 of the window row holding stream row `y`.
  const auto content = [&](int stage, std::int64_t y) {
    return window(stage).plane(y) + r;
  };

  const Span load = stage_cone(wx, r, steps, 0);
  std::int64_t computed = 0;
  const std::int64_t ymax = ny + std::int64_t(steps) * r;
  for (std::int64_t y = 0; y < ymax; ++y) {
    if (cancel) cancel->throw_if_cancelled();
    // --- read: load stage 0's cone of input row y (zero off-grid) ---
    load_row(content(0, y), load, y < ny ? &in.at(0, y) : nullptr, x0, nx);

    // --- update: stage-k cone rows that just became computable ---
    for (int k = 1; k <= steps; ++k) {
      const std::int64_t row = y - std::int64_t(k) * r;
      if (row < 0) break;  // deeper stages lag even further
      const Span cx = stage_cone(wx, r, steps, k);
      float* dst = content(k, row);
      if (row >= ny) {  // off-grid center row: zeros, overwriting the slot
        std::fill(dst + cx.lo, dst + cx.hi, 0.0f);
        continue;
      }
      for (std::int64_t j = 0; j < w; ++j) {
        ws.planes[std::size_t(j)] =
            content(k - 1, clamp_index(row + j - r, 0, ny - 1));
      }
      for (std::size_t t = 0; t < ws.src.size(); ++t) {
        ws.src[t] = ws.planes[std::size_t(ws.sy[t])] + ws.dx[t];
      }
      computed += compute_row(ws, dst, cx, x0, nx, r);
    }

    // --- write: retire the finished row ---
    const std::int64_t wout = y - std::int64_t(steps) * r;
    if (wout < 0 || wout >= ny) continue;
    std::memcpy(&out.at(x0 + wx.lo, wout), content(steps, wout) + wx.lo,
                std::size_t(wx.hi - wx.lo) * sizeof(float));
    stats.cells_written += wx.hi - wx.lo;
  }
  stats.cells_computed += computed;
}

void block_pass(const BlockingPlan& plan, const BlockExtent& blk,
                const TapSet& taps, const Grid3D<float>& in,
                Grid3D<float>& out, int steps, RunStats& stats,
                const CancellationToken* cancel) {
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t r = taps.radius();
  const std::int64_t w = 2 * r + 1;
  const std::int64_t nx = in.nx(), ny = in.ny(), nz = in.nz();
  const std::int64_t x0 = blk.x0, y0 = blk.y0;
  const std::int64_t prow = cfg.bsize_x + 2 * r;
  const std::int64_t plane_cells = prow * (cfg.bsize_y + 2 * r);

  const std::int64_t halo = cfg.halo();
  const Span wx{halo, std::min(halo + cfg.csize_x(), blk.valid_x_end - x0)};
  const Span wy{halo, std::min(halo + cfg.csize_y(), blk.valid_y_end - y0)};
  // Nothing retires, so every cone is don't-care (and may be empty).
  if (wx.empty() || wy.empty()) return;

  Workspace& ws = tls_workspace();
  ws.stage(taps);
  float* const base =
      ws.zeroed_slab(std::size_t((steps + 1) * w * plane_cells));
  const auto window = [&](int stage) {
    return PlanarShiftRegister<float>(base + stage * w * plane_cells, w,
                                      plane_cells);
  };
  // Offset of block-local (0, y_rel) within a padded window plane.
  const auto at_row = [&](std::int64_t y_rel) { return (y_rel + r) * prow + r; };

  const Span load_x = stage_cone(wx, r, steps, 0);
  const Span load_y = stage_cone(wy, r, steps, 0);
  std::int64_t computed = 0;
  const std::int64_t zmax = nz + std::int64_t(steps) * r;
  for (std::int64_t z = 0; z < zmax; ++z) {
    if (cancel) cancel->throw_if_cancelled();
    // --- read: load stage 0's cone of input plane z (zero off-grid) ---
    float* const in_plane = window(0).plane(z);
    for (std::int64_t y_rel = load_y.lo; y_rel < load_y.hi; ++y_rel) {
      const std::int64_t yg = y0 + y_rel;
      const bool on_grid = z < nz && yg >= 0 && yg < ny;
      load_row(in_plane + at_row(y_rel), load_x,
               on_grid ? &in.at(0, yg, z) : nullptr, x0, nx);
    }

    // --- update: stage-k cone planes that just became computable ---
    for (int k = 1; k <= steps; ++k) {
      const std::int64_t p = z - std::int64_t(k) * r;
      if (p < 0) break;
      const Span cx = stage_cone(wx, r, steps, k);
      const Span cy = stage_cone(wy, r, steps, k);
      float* const dst_plane = window(k).plane(p);
      if (p >= nz) {  // off-grid center plane: zeros, overwriting the slot
        for (std::int64_t y_rel = cy.lo; y_rel < cy.hi; ++y_rel) {
          float* row = dst_plane + at_row(y_rel);
          std::fill(row + cx.lo, row + cx.hi, 0.0f);
        }
        continue;
      }
      // z-clamped source planes of stage k-1; the window provably still
      // holds every clamped index (clamping pulls toward the interior).
      const PlanarShiftRegister<float> src_window = window(k - 1);
      for (std::int64_t j = 0; j < w; ++j) {
        ws.planes[std::size_t(j)] =
            src_window.plane(clamp_index(p + j - r, 0, nz - 1));
      }
      for (std::int64_t y_rel = cy.lo; y_rel < cy.hi; ++y_rel) {
        float* dst = dst_plane + at_row(y_rel);
        const std::int64_t yg = y0 + y_rel;
        if (yg < 0 || yg >= ny) {
          std::fill(dst + cx.lo, dst + cx.hi, 0.0f);
          continue;
        }
        for (std::int64_t j = 0; j < w; ++j) {
          ws.ydel[std::size_t(j)] = clamp_index(yg + j - r, 0, ny - 1) - yg;
        }
        for (std::size_t t = 0; t < ws.src.size(); ++t) {
          ws.src[t] = ws.planes[std::size_t(ws.sz[t])] +
                      at_row(y_rel + ws.ydel[std::size_t(ws.sy[t])]) + ws.dx[t];
        }
        computed += compute_row(ws, dst, cx, x0, nx, r);
      }
    }

    // --- write: retire the finished plane ---
    const std::int64_t pout = z - std::int64_t(steps) * r;
    if (pout < 0 || pout >= nz) continue;
    const float* const done = window(steps).plane(pout);
    for (std::int64_t y_rel = wy.lo; y_rel < wy.hi; ++y_rel) {
      std::memcpy(&out.at(x0 + wx.lo, y0 + y_rel, pout),
                  done + at_row(y_rel) + wx.lo,
                  std::size_t(wx.hi - wx.lo) * sizeof(float));
      stats.cells_written += wx.hi - wx.lo;
    }
  }
  stats.cells_computed += computed;
}

/// Interpreter-identical stream accounting for one block pass.
void account_pass(const BlockingPlan& plan, RunStats& stats) {
  stats.cells_streamed += plan.cells_streamed_per_pass;
  stats.vectors_processed += plan.cells_streamed_per_pass / plan.config.parvec;
  ++stats.block_passes;
}

}  // namespace

void run_block_2d(const BlockingPlan& plan, const BlockExtent& blk,
                  const TapSet& taps, const Grid2D<float>& in,
                  Grid2D<float>& out, int steps, RunStats& stats,
                  const CancellationToken* cancel) {
  block_pass(plan, blk, taps, in, out, steps, stats, cancel);
  account_pass(plan, stats);
}

void run_block_3d(const BlockingPlan& plan, const BlockExtent& blk,
                  const TapSet& taps, const Grid3D<float>& in,
                  Grid3D<float>& out, int steps, RunStats& stats,
                  const CancellationToken* cancel) {
  block_pass(plan, blk, taps, in, out, steps, stats, cancel);
  account_pass(plan, stats);
}

}  // namespace fpga_stencil
