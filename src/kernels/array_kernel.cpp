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
// index per outer iteration. 2D runs as 3D with one y row per plane and
// the 2D y axis streamed:
//
//   for z in [-P, nz + steps*R):           // streamed dim + pipeline drain
//     read  : load stage 0's cone of input plane z into its window
//     update: for k = 1..steps, plane p = z - k*R of stage k becomes
//             computable (its +R source in stage k-1 just landed);
//             compute its cone row by row from stage k-1's window
//     write : plane z - steps*R of stage `steps` is final; retire its
//             valid compute region into `out`
//
// (P = 0 except for periodic tap sets; see below.) Per cell the
// arithmetic is the interpreter's exactly: taps accumulate in tap order
// (acc = c0*t0; acc += ct*tt).
//
// ## Boundary conditions: ghost columns and index tables
//
// Every tap reads the value the reference's per-axis index function
// picks (`apply_taps`: clamp_index, mirror_index, or the Dirichlet
// constant off the grid), resolved without a per-cell branch:
//
//  - Streamed axis: the index function is uniform over a plane, so it
//    is hoisted into a table -- per (stage, plane) the 2R + 1 source
//    planes (3D) / rows (2D). A Dirichlet plane off the grid is a
//    workspace plane holding the constant.
//  - x and y axes (ghost cells): after each stage row below the last is
//    computed (and each stage-0 row loaded), the R ghost columns on each
//    grid side inside the row's cone are written with the value the
//    index function reads there: the edge cell (clamp), the mirrored cell
//    (reflective) or the constant (Dirichlet). Once a plane is complete,
//    its R ghost rows on each grid side inside the cone are written the
//    same way, ghost columns included, so a corner ghost holds the value
//    of both axes' index functions. A ghost cell holds exactly the value
//    a select-chain would have fetched, so every tap reads at its plain
//    offset: one source pointer per tap is set at a plane's first row and
//    advanced one padded row per row, and one vector loop runs over every
//    in-grid cone column with no border split.
//  - Periodic has no boundary at all, as in the interpreter's
//    wrap-extended stream: stage-0 loads wrap in x and y, the streamed
//    axis is pre-padded by P = steps*R wrapped planes (rows), and every
//    cone cell -- off-grid ones included -- is computed as the real
//    periodic image it stands for, reading plain tap offsets.
//
// Off-grid cells of the other conditions are never computed and never
// read. Inside a plane the vector loop covers whole 4-wide chunks; the
// row tail is one more chunk ending at the row's last column, which
// recomputes identical cells (rows narrower than a chunk run per cell).
// The chunks hold explicit 4-lane vector accumulators; each lane carries
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
// per blocked axis (and per streamed axis, for periodic), where
// [w_lo, w_hi) is the block's retire window (each stage widens the cone
// by at most R; a boundary image only pulls reads inward, toward cells
// that are themselves in the cone). Stage k (k = 1..steps) therefore
// computes exactly that range, and the input load (stage 0) loads it
// with e_0 = steps*R -- so stage k's cone reads only stage k-1's cone
// and its ghost cells, and a short tail pass (steps < partime) also
// skips the unused part of the halo.
//
// Since halo = partime*cfg.radius >= steps*R, the stage-0 cone lies in
// the block and every later cone stays at least R inside it, so each
// tap read and each ghost cell lands in the plane padding of R cells per
// side. A cone that crosses a grid edge spans at least R + 1 in-grid
// cells past it (its retire window is in the grid and non-empty), so the
// cells a ghost copies are computed whenever the grid extent is > R,
// which reflective boundaries require anyway.
#include "kernels/array_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
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
/// Accumulators per chunk, and the chunk width in columns.
constexpr int kChunkVecs = 4;
constexpr std::int64_t kChunk = kChunkVecs * kVecLanes;

inline Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// Marks a Dirichlet neighbour off the grid in the index tables.
constexpr std::int64_t kGhost = std::numeric_limits<std::int64_t>::min();

/// The source index along one axis of extent `n` for neighbour index `i`:
/// the same per-axis rule as the reference's apply_taps, with kGhost for
/// a Dirichlet neighbour off the grid. Periodic never remaps: its stream
/// is wrap-extended, so `i` is already the image.
inline std::int64_t source_index(BoundaryKind kind, std::int64_t i,
                                 std::int64_t n) {
  switch (kind) {
    case BoundaryKind::clamp:
      return clamp_index(i, 0, n - 1);
    case BoundaryKind::reflective:
      return mirror_index(i, n);
    case BoundaryKind::dirichlet:
      return i >= 0 && i < n ? i : kGhost;
    case BoundaryKind::periodic:
      break;
  }
  return i;
}

/// Per-thread scratch. A block pass needs one slab of (steps + 1)
/// rolling windows of 2R + 1 planes each, plus the tap list staged as
/// flat arrays. Allocating per block would dominate small blocks and show
/// up as malloc contention under the block-parallel pool, so each thread
/// keeps one workspace that grows monotonically to the largest block it
/// has seen.
struct Workspace {
  std::vector<float> slab;
  /// One padded plane of the Dirichlet value, read by every tap whose
  /// plane leaves the grid.
  std::vector<float> ghost_plane;
  // The tap list in accumulation order, one entry per tap.
  std::vector<std::int64_t> off;  ///< dx + dy * padded row, in a plane
  std::vector<int> ss;            ///< ds + R: index into `planes`
  std::vector<float> cf;
  /// Per output row: each tap's source cell at block-local x == 0.
  std::vector<const float*> src;
  /// Per (stage, plane): the 2R + 1 source planes.
  std::vector<const float*> planes;

  /// Stages `taps` with the streamed axis split out, for planes of
  /// padded rows of `prow` cells: (dx, dy | dz) in 3D, (dx | dy) in 2D.
  void stage(const TapSet& taps, std::int64_t prow) {
    const std::size_t n = taps.size();
    const std::int64_t r = taps.radius();
    const bool is3d = taps.dims() == 3;
    off.resize(n);
    ss.resize(n);
    cf.resize(n);
    src.resize(n);
    planes.resize(std::size_t(2 * r + 1));
    for (std::size_t t = 0; t < n; ++t) {
      const Tap& tap = taps.taps()[t];
      off[t] = tap.dx + (is3d ? tap.dy * prow : 0);
      ss[t] = int((is3d ? tap.dz : tap.dy) + r);
      cf[t] = tap.coeff;
    }
  }

  /// A slab of at least `cells` floats. It needs no clearing: a pass
  /// reads only cells it wrote earlier for the same plane (cone cells,
  /// ghost cells), so earlier blocks' contents are never observed.
  float* slab_of(std::size_t cells) {
    if (slab.size() < cells) slab.resize(cells);
    return slab.data();
  }
};

Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Columns [x, x + 4*V) of one output row.
template <int V>
inline void chunk(const Workspace& ws, float* dst, std::int64_t x) {
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

/// Column x of one output row, in the chunks' per-lane op order.
inline float cell(const Workspace& ws, std::int64_t x) {
  float acc = ws.cf[0] * ws.src[0][x];
  for (std::size_t t = 1; t < ws.cf.size(); ++t) acc += ws.cf[t] * ws.src[t][x];
  return acc;
}

/// Block-local [lo, hi) along one axis.
struct Span {
  std::int64_t lo = 0, hi = 0;
  [[nodiscard]] bool empty() const { return lo >= hi; }
  [[nodiscard]] bool contains(std::int64_t i) const {
    return i >= lo && i < hi;
  }
};

/// Stage k's influence cone along one axis: the retire window `win`
/// widened by (steps - k)*r per side (see the header comment).
[[nodiscard]] inline Span stage_cone(Span win, std::int64_t r, int steps,
                                     int k) {
  const std::int64_t e = std::int64_t(steps - k) * r;
  return {win.lo - e, win.hi + e};
}

/// The part of `s` whose global index (origin + local) lies in [0, n).
[[nodiscard]] inline Span in_grid(Span s, std::int64_t origin,
                                  std::int64_t n) {
  const std::int64_t lo = std::clamp(-origin, s.lo, s.hi);
  return {lo, std::clamp(n - origin, lo, s.hi)};
}

/// Columns `cols` (block-local) of one output row of one stage from the
/// staged `ws.src` rows. `dst` points at block-local x == 0 of a padded
/// row.
inline void compute_row(const Workspace& ws, float* dst, Span cols) {
  std::int64_t x = cols.lo;
  for (; x + kChunk <= cols.hi; x += kChunk) chunk<kChunkVecs>(ws, dst, x);
  for (; x + kVecLanes <= cols.hi; x += kVecLanes) chunk<1>(ws, dst, x);
  if (x == cols.hi) return;
  if (cols.hi - cols.lo >= kVecLanes) {
    chunk<1>(ws, dst, cols.hi - kVecLanes);  // overlapping tail chunk
    return;
  }
  for (; x < cols.hi; ++x) dst[x] = cell(ws, x);
}

/// The kernel's view of a grid: x and y blocked (ny == 1 in 2D), s
/// streamed (y in 2D, z in 3D), rows contiguous in x.
struct FieldView {
  const float* in;
  float* out;
  std::int64_t nx, ny, ns;
  [[nodiscard]] std::int64_t row(std::int64_t y, std::int64_t s) const {
    return (s * ny + y) * nx;
  }
};

/// One block pass over a FieldView; the 2D and 3D entry points differ
/// only in the view and in the blocked y axis (absent in 2D: one row per
/// plane, no y reach).
class BlockPass {
 public:
  BlockPass(const BlockingPlan& plan, const BlockExtent& blk,
            const TapSet& taps, const FieldView& f, int steps)
      : bc_(taps.boundary()),
        periodic_(bc_.kind == BoundaryKind::periodic),
        f_(f),
        steps_(steps),
        r_(taps.radius()),
        ry_(plan.config.dims == 3 ? r_ : 0),
        x0_(blk.x0),
        y0_(plan.config.dims == 3 ? blk.y0 : 0),
        prow_(plan.config.bsize_x + 2 * r_),
        plane_cells_(prow_ * ((plan.config.dims == 3 ? plan.config.bsize_y
                                                     : 1) +
                              2 * ry_)),
        pre_(periodic_ ? std::int64_t(steps) * r_ : 0),
        ws_(tls_workspace()) {
    const AcceleratorConfig& cfg = plan.config;
    const std::int64_t halo = cfg.halo();
    wx_ = {halo, std::min(halo + cfg.csize_x(), blk.valid_x_end - x0_)};
    wy_ = cfg.dims == 3 ? Span{halo, std::min(halo + cfg.csize_y(),
                                              blk.valid_y_end - y0_)}
                        : Span{0, 1};
    ws_.stage(taps, prow_);
  }

  /// Runs the pass; returns the cells computed.
  std::int64_t run(RunStats& stats, const CancellationToken* cancel) {
    // Nothing retires, so every cone is don't-care (and may be empty).
    if (wx_.empty() || wy_.empty()) return 0;
    const std::int64_t w = 2 * r_ + 1;
    base_ = ws_.slab_of(std::size_t((steps_ + 1) * w * plane_cells_));
    if (bc_.kind == BoundaryKind::dirichlet) {
      ws_.ghost_plane.assign(std::size_t(plane_cells_), bc_.value);
    }
    std::int64_t computed = 0;
    const std::int64_t send = f_.ns + std::int64_t(steps_) * r_;
    for (std::int64_t s = -pre_; s < send; ++s) {
      if (cancel) cancel->throw_if_cancelled();
      if (stream_cone(0).contains(s)) load_plane(s);
      for (int k = 1; k <= steps_; ++k) {
        const std::int64_t p = s - std::int64_t(k) * r_;
        const Span planes = stream_cone(k);
        if (p < planes.lo) break;  // deeper stages lag even further
        if (p < planes.hi) computed += compute_plane(k, p);
      }
      const std::int64_t pout = s - std::int64_t(steps_) * r_;
      if (pout >= 0 && pout < f_.ns) retire_plane(pout, stats);
    }
    return computed;
  }

 private:
  /// Stage k's slot for stream plane p (>= -pre_).
  [[nodiscard]] float* slot(int k, std::int64_t p) const {
    const std::int64_t w = 2 * r_ + 1;
    return PlanarShiftRegister<float>(base_ + k * w * plane_cells_, w,
                                      plane_cells_)
        .plane(p + pre_);
  }
  /// Offset of block-local (0, y_rel) within a padded plane.
  [[nodiscard]] std::int64_t at_row(std::int64_t y_rel) const {
    return (y_rel + ry_) * prow_ + r_;
  }
  /// The planes stage k computes: the grid, or for periodic the
  /// streamed-axis influence cone.
  [[nodiscard]] Span stream_cone(int k) const {
    return periodic_ ? stage_cone({0, f_.ns}, r_, steps_, k) : Span{0, f_.ns};
  }
  /// The part of stage k's cone that is computed, along x (`origin`
  /// x0_, extent nx) or y (y0_, ny): all of it for periodic, the in-grid
  /// part otherwise.
  [[nodiscard]] Span computed(Span cone, std::int64_t origin,
                              std::int64_t n) const {
    return periodic_ ? cone : in_grid(cone, origin, n);
  }

  /// Writes the R ghost columns on each grid side of a row that lies
  /// inside its cone; `cols` is the row's in-grid part.
  void fill_ghost_cols(float* row, Span cols, Span cone) const {
    if (periodic_ || cols.empty()) return;
    const auto ghost = [&](std::int64_t x) {
      const std::int64_t i = source_index(bc_.kind, x0_ + x, f_.nx);
      row[x] = i == kGhost ? bc_.value : row[i - x0_];
    };
    if (cols.lo > cone.lo) {
      for (std::int64_t x = cols.lo - r_; x < cols.lo; ++x) ghost(x);
    }
    if (cols.hi < cone.hi) {
      for (std::int64_t x = cols.hi; x < cols.hi + r_; ++x) ghost(x);
    }
  }

  /// Writes the R ghost rows on each grid side of a complete plane that
  /// lie inside its cone `cone`; `rows` and `cols` are its in-grid part.
  /// Each ghost row spans the computed columns and their ghost columns.
  void fill_ghost_rows(float* plane, Span rows, Span cone, Span cols) const {
    if (periodic_ || ry_ == 0 || rows.empty() || cols.empty()) return;
    const std::int64_t lo = cols.lo - r_;
    const std::size_t width = std::size_t(cols.hi - cols.lo + 2 * r_);
    const auto ghost = [&](std::int64_t y) {
      const std::int64_t i = source_index(bc_.kind, y0_ + y, f_.ny);
      float* const dst = plane + at_row(y) + lo;
      if (i == kGhost) {
        std::fill_n(dst, width, bc_.value);
      } else {
        std::memcpy(dst, plane + at_row(i - y0_) + lo, width * sizeof(float));
      }
    };
    if (rows.lo > cone.lo) {
      for (std::int64_t y = rows.lo - ry_; y < rows.lo; ++y) ghost(y);
    }
    if (rows.hi < cone.hi) {
      for (std::int64_t y = rows.hi; y < rows.hi + ry_; ++y) ghost(y);
    }
  }

  /// Stage 0: loads the cone of input plane s (wrapped for periodic).
  void load_plane(std::int64_t s) {
    const Span cx = stage_cone(wx_, r_, steps_, 0);
    const Span cy = stage_cone(wy_, ry_, steps_, 0);
    const Span grid = in_grid(cx, x0_, f_.nx);
    const Span rows = computed(cy, y0_, f_.ny);
    float* const plane = slot(0, s);
    for (std::int64_t y_rel = rows.lo; y_rel < rows.hi; ++y_rel) {
      // wrap_index leaves in-grid indices as they are.
      float* const dst = plane + at_row(y_rel);
      const float* const src = f_.in + f_.row(wrap_index(y0_ + y_rel, f_.ny),
                                              wrap_index(s, f_.ns));
      std::memcpy(dst + grid.lo, src + (x0_ + grid.lo),
                  std::size_t(grid.hi - grid.lo) * sizeof(float));
      if (periodic_) {
        for (std::int64_t x = cx.lo; x < grid.lo; ++x) {
          dst[x] = src[wrap_index(x0_ + x, f_.nx)];
        }
        for (std::int64_t x = grid.hi; x < cx.hi; ++x) {
          dst[x] = src[wrap_index(x0_ + x, f_.nx)];
        }
      }
      fill_ghost_cols(dst, grid, cx);
    }
    fill_ghost_rows(plane, rows, cy, grid);
  }

  /// Stage k (1..steps): computes the cone of plane p from stage k-1's
  /// window; returns the cells computed.
  std::int64_t compute_plane(int k, std::int64_t p) {
    const Span cx = stage_cone(wx_, r_, steps_, k);
    const Span cy = stage_cone(wy_, ry_, steps_, k);
    const Span cols = computed(cx, x0_, f_.nx);
    const Span rows = computed(cy, y0_, f_.ny);
    // The window provably still holds every source plane: an index
    // function only pulls reads inward, toward the last 2R + 1 planes.
    for (std::int64_t j = 0; j < 2 * r_ + 1; ++j) {
      const std::int64_t i = source_index(bc_.kind, p + j - r_, f_.ns);
      ws_.planes[std::size_t(j)] =
          i == kGhost ? ws_.ghost_plane.data() : slot(k - 1, i);
    }
    for (std::size_t t = 0; t < ws_.src.size(); ++t) {
      ws_.src[t] =
          ws_.planes[std::size_t(ws_.ss[t])] + at_row(rows.lo) + ws_.off[t];
    }
    float* const plane = slot(k, p);
    for (std::int64_t y_rel = rows.lo; y_rel < rows.hi; ++y_rel) {
      float* const dst = plane + at_row(y_rel);
      compute_row(ws_, dst, cols);
      if (k < steps_) fill_ghost_cols(dst, cols, cx);
      for (const float*& src : ws_.src) src += prow_;
    }
    if (k < steps_) fill_ghost_rows(plane, rows, cy, cols);
    return (cols.hi - cols.lo) * (rows.hi - rows.lo);
  }

  /// Copies the retire window of final plane p into `out`.
  void retire_plane(std::int64_t p, RunStats& stats) const {
    const float* const done = slot(steps_, p);
    for (std::int64_t y_rel = wy_.lo; y_rel < wy_.hi; ++y_rel) {
      std::memcpy(f_.out + f_.row(y0_ + y_rel, p) + x0_ + wx_.lo,
                  done + at_row(y_rel) + wx_.lo,
                  std::size_t(wx_.hi - wx_.lo) * sizeof(float));
      stats.cells_written += wx_.hi - wx_.lo;
    }
  }

  const BoundaryCondition bc_;
  const bool periodic_;
  const FieldView f_;
  const int steps_;
  const std::int64_t r_, ry_;  ///< reach along x/streamed, along y
  const std::int64_t x0_, y0_;
  const std::int64_t prow_, plane_cells_;
  const std::int64_t pre_;  ///< periodic stream pre-pad
  Span wx_, wy_;            ///< retire window
  Workspace& ws_;
  float* base_ = nullptr;
};

/// One block pass plus the interpreter-identical stream accounting.
void run_pass(const BlockingPlan& plan, const BlockExtent& blk,
              const TapSet& taps, const FieldView& f, int steps,
              RunStats& stats, const CancellationToken* cancel) {
  stats.cells_computed +=
      BlockPass(plan, blk, taps, f, steps).run(stats, cancel);
  // Periodic passes also stream the interpreter's wrap pre-pad.
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t streamed =
      plan.cells_streamed_per_pass +
      (taps.boundary().kind == BoundaryKind::periodic
           ? cfg.stream_drain() * cfg.row_cells()
           : 0);
  stats.cells_streamed += streamed;
  stats.vectors_processed += streamed / cfg.parvec;
  ++stats.block_passes;
}

}  // namespace

void run_block_2d(const BlockingPlan& plan, const BlockExtent& blk,
                  const TapSet& taps, const Grid2D<float>& in,
                  Grid2D<float>& out, int steps, RunStats& stats,
                  const CancellationToken* cancel) {
  run_pass(plan, blk, taps, {in.data(), out.data(), in.nx(), 1, in.ny()},
           steps, stats, cancel);
}

void run_block_3d(const BlockingPlan& plan, const BlockExtent& blk,
                  const TapSet& taps, const Grid3D<float>& in,
                  Grid3D<float>& out, int steps, RunStats& stats,
                  const CancellationToken* cancel) {
  run_pass(plan, blk, taps,
           {in.data(), out.data(), in.nx(), in.ny(), in.nz()}, steps, stats,
           cancel);
}

}  // namespace fpga_stencil
