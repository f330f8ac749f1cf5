// The array kernel's contract: it is bit-exact with the scalar
// interpreter (the semantic reference) and with the naive reference for
// any tap set -- any tap order, any radius, any parvec -- under every
// boundary condition, a block runs on it exactly when
// cfg.use_specialized_kernels is set, and dispatch and the opt-out
// fallback are observable through telemetry.
//
// The exactness sweeps run star/box x 2D/3D x radius 1-4 x parvec
// {1,4,8,16} through StencilAccelerator twice (dispatch on / forced
// interpreter) on grids chosen so every block shape occurs: interior
// blocks, partial tail blocks in each blocked dimension, and a tail pass
// with fewer steps than partime. At partime 4 the tail pass is a single
// step, so its stage cones sit furthest inside the halo.
// AnyClampTapSetDispatchesBitExact covers the tap sets and parvecs off
// that grid, EveryBoundaryDispatchesBitExact the four boundary
// conditions on degenerate extents; TrimmedConeComputeCount pins the
// kernel's cone-trimmed work to its closed form.
#include <gtest/gtest.h>

#include "common/math_util.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

constexpr int kRadii[] = {1, 2, 3, 4};
constexpr int kParvecs[] = {1, 4, 8, 16};

TapSet star_taps(int dims, int radius) {
  return StarStencil::make_benchmark(dims, radius, 99).to_taps();
}

TapSet box_taps(int dims, int radius) {
  return make_box_stencil(dims, radius, 99);
}

/// The sweep's two tap layouts, in the orders their builders emit.
struct Shape {
  const char* name;
  TapSet (*taps)(int dims, int radius);
};
constexpr Shape kShapes[] = {{"star", star_taps}, {"box", box_taps}};

/// Small config with every block-shape stress: bsize_x (at least 32) is
/// a multiple of every envelope parvec and leaves csize_x >= 8, so with
/// the grid sizes below there are interior + partial-tail blocks and
/// (iterations = partime + 1) a short final pass.
AcceleratorConfig envelope_config(int dims, int radius, int parvec,
                                  int partime = 2) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = parvec;
  cfg.partime = partime;
  cfg.bsize_x = std::max(32, round_up(2 * partime * radius + 8, 16));
  cfg.bsize_y = dims == 3 ? 2 * partime * radius + 5 : 1;
  return cfg;
}

struct ExactnessResult {
  CompareResult cmp;
  RunStats specialized;
  RunStats generic;
};

ExactnessResult run_both_2d(const TapSet& taps, AcceleratorConfig cfg,
                            std::int64_t nx, std::int64_t ny, int iters) {
  Grid2D<float> a(nx, ny), b(nx, ny);
  a.fill_random(7, -1.0f, 1.0f);
  b = a;
  cfg.use_specialized_kernels = true;
  StencilAccelerator fast(taps, cfg);
  ExactnessResult r;
  r.specialized = fast.run(a, iters);
  cfg.use_specialized_kernels = false;
  StencilAccelerator slow(taps, cfg);
  r.generic = slow.run(b, iters);
  r.cmp = compare_exact(a, b);
  return r;
}

ExactnessResult run_both_3d(const TapSet& taps, AcceleratorConfig cfg,
                            std::int64_t nx, std::int64_t ny, std::int64_t nz,
                            int iters) {
  Grid3D<float> a(nx, ny, nz), b(nx, ny, nz);
  a.fill_random(11, -1.0f, 1.0f);
  b = a;
  cfg.use_specialized_kernels = true;
  StencilAccelerator fast(taps, cfg);
  ExactnessResult r;
  r.specialized = fast.run(a, iters);
  cfg.use_specialized_kernels = false;
  StencilAccelerator slow(taps, cfg);
  r.generic = slow.run(b, iters);
  r.cmp = compare_exact(a, b);
  return r;
}

void expect_stats_parity(const ExactnessResult& r, const std::string& label) {
  EXPECT_TRUE(r.cmp.identical()) << label << ": " << r.cmp.summary();
  EXPECT_EQ(r.specialized.cells_written, r.generic.cells_written) << label;
  EXPECT_EQ(r.specialized.cells_streamed, r.generic.cells_streamed) << label;
  EXPECT_EQ(r.specialized.vectors_processed, r.generic.vectors_processed)
      << label;
  EXPECT_EQ(r.specialized.block_passes, r.generic.block_passes) << label;
}

void envelope_sweep_2d(int partime) {
  for (const Shape& shape : kShapes) {
    for (int rad : kRadii) {
      for (int pv : kParvecs) {
        const AcceleratorConfig cfg = envelope_config(2, rad, pv, partime);
        const TapSet taps = shape.taps(2, rad);
        const ExactnessResult r = run_both_2d(taps, cfg, 45, 23, partime + 1);
        expect_stats_parity(r, std::string(shape.name) +
                                   " 2D r" + std::to_string(rad) + " v" +
                                   std::to_string(pv) + " partime" +
                                   std::to_string(partime));
      }
    }
  }
}

void envelope_sweep_3d(int partime, std::int64_t ny, std::int64_t nz) {
  for (const Shape& shape : kShapes) {
    for (int rad : kRadii) {
      for (int pv : kParvecs) {
        const AcceleratorConfig cfg = envelope_config(3, rad, pv, partime);
        const TapSet taps = shape.taps(3, rad);
        const ExactnessResult r =
            run_both_3d(taps, cfg, 45, ny, nz, partime + 1);
        expect_stats_parity(r, std::string(shape.name) +
                                   " 3D r" + std::to_string(rad) + " v" +
                                   std::to_string(pv) + " partime" +
                                   std::to_string(partime));
      }
    }
  }
}

TEST(KernelDispatch, EnvelopeExactness2D) { envelope_sweep_2d(2); }

TEST(KernelDispatch, EnvelopeExactness3D) { envelope_sweep_3d(2, 27, 9); }

TEST(KernelDispatch, EnvelopeExactness2DPartime4) { envelope_sweep_2d(4); }

// A smaller y/z extent keeps the interpreter oracle affordable at the
// deeper pipeline: 14 = 2*5 + 4 rows still leave a y tail block, and
// nz = 5 streams fewer planes than the drain.
TEST(KernelDispatch, EnvelopeExactness3DPartime4) {
  envelope_sweep_3d(4, 14, 5);
}

/// Closed-form in-grid cells of stage cones along one blocked axis,
/// summed over its blocks: block i retires [i*csize, min(n, (i+1)*csize))
/// and a stage `e` cells short of the last one computes that window
/// widened by e per side, clipped to the grid.
std::int64_t axis_cone_sum(std::int64_t n, std::int64_t csize,
                           std::int64_t e) {
  std::int64_t sum = 0;
  for (std::int64_t lo = 0; lo < n; lo += csize) {
    const std::int64_t hi = std::min(n, lo + csize);
    sum += std::min(n, hi + e) - std::max<std::int64_t>(0, lo - e);
  }
  return sum;
}

/// Closed-form cells_computed of a specialized run: summed over passes,
/// stages k = 1..steps and on-grid stream planes, |cone_x| * |cone_y|.
std::int64_t expected_cells_computed(const AcceleratorConfig& cfg,
                                     std::int64_t nx, std::int64_t ny,
                                     std::int64_t nz, int iterations) {
  std::int64_t total = 0;
  for (int done = 0; done < iterations; done += cfg.partime) {
    const int steps = std::min(cfg.partime, iterations - done);
    for (int k = 1; k <= steps; ++k) {
      const std::int64_t e = std::int64_t(steps - k) * cfg.radius;
      const std::int64_t x = axis_cone_sum(nx, cfg.csize_x(), e);
      total += cfg.dims == 3 ? x * axis_cone_sum(ny, cfg.csize_y(), e) * nz
                             : x * ny;
    }
  }
  return total;
}

TEST(KernelDispatch, TrimmedConeComputeCount) {
  // Tail blocks in every blocked axis (45 = 2*20 + 5 in x, 27 = 5*5 + 2
  // in y at partime 3) and a 1-step tail pass.
  for (const Shape& shape : kShapes) {
    for (int dims : {2, 3}) {
      const AcceleratorConfig cfg = envelope_config(dims, 2, 4, 3);
      const TapSet taps = shape.taps(dims, 2);
      const int iters = cfg.partime + 1;
      const std::int64_t nz = dims == 3 ? 9 : 1;
      const ExactnessResult r =
          dims == 3 ? run_both_3d(taps, cfg, 45, 27, nz, iters)
                    : run_both_2d(taps, cfg, 45, 27, iters);
      const std::string label =
          std::string(shape.name) + " " + std::to_string(dims) + "D";
      expect_stats_parity(r, label);
      EXPECT_EQ(r.specialized.cells_computed,
                expected_cells_computed(cfg, 45, 27, nz, iters))
          << label;
      // The interpreter's PEs evaluate every streamed cell, and every
      // pass streams the same cells.
      EXPECT_EQ(r.generic.cells_computed,
                r.generic.cells_streamed / r.generic.passes * iters)
          << label;
      EXPECT_LT(r.specialized.cells_computed, r.generic.cells_computed)
          << label;
    }
  }

  // The acceptance geometry (r4 star, 144x144 blocks, partime 4,
  // 512x512) on a short z-extent: per-axis cone sums 608/576/544/512
  // against 640 for a full-block stage.
  AcceleratorConfig cfg = envelope_config(3, 4, 16, 4);
  cfg.bsize_x = cfg.bsize_y = 144;
  EXPECT_EQ(axis_cone_sum(512, cfg.csize_x(), 12), 608);
  EXPECT_EQ(axis_cone_sum(512, cfg.csize_x(), 8), 576);
  EXPECT_EQ(axis_cone_sum(512, cfg.csize_x(), 4), 544);
  EXPECT_EQ(axis_cone_sum(512, cfg.csize_x(), 0), 512);
  EXPECT_EQ(axis_cone_sum(512, cfg.csize_x(), cfg.halo()), 640);
  Grid3D<float> g(512, 512, 3);
  g.fill_random(17);
  StencilAccelerator accel(star_taps(3, 4), cfg);
  const RunStats stats = accel.run(g, 4);
  EXPECT_EQ(stats.cells_computed,
            (608 * 608 + 576 * 576 + 544 * 544 + 512 * 512) * 3);
  EXPECT_DOUBLE_EQ(stats.compute_redundancy(), 1.201171875);
}

TEST(KernelDispatch, DeepTemporalChainAndPartialTail) {
  // partime 4 with iterations 6: a full 4-step pass then a 2-step tail,
  // halo 16 > radius so the influence-cone bound is exercised away from
  // its tight case.
  AcceleratorConfig cfg = envelope_config(3, 4, 8, 4);
  cfg.bsize_x = 48;
  cfg.bsize_y = 2 * cfg.partime * cfg.radius + 3;
  const TapSet taps = star_taps(3, 4);
  const ExactnessResult r = run_both_3d(taps, cfg, 52, 40, 11, 6);
  expect_stats_parity(r, "star 3D r4 v8 partime4");
}

/// A tap set or knob off the sweeps' star/box grid, with the geometry to
/// run it on.
struct AnyTapRow {
  std::string label;
  TapSet taps;
  int parvec = 4;
  int partime = 2;
  std::int64_t nx = 45, ny = 27, nz = 9;  ///< nz ignored in 2D
};

TapSet custom_taps(int dims, int radius, std::vector<Tap> taps) {
  return TapSet(dims, radius, std::move(taps));
}

TapSet reversed(const TapSet& t) {
  return TapSet(t.dims(), t.radius(),
                std::vector<Tap>(t.taps().rbegin(), t.taps().rend()));
}

/// Runs `row` on the kernel (telemetry attached), on the interpreter and
/// on the naive reference; all three must agree bit for bit, with no
/// fallback.
template <typename GridT>
void expect_kernel_matches_oracles(const AnyTapRow& row, GridT grid) {
  SCOPED_TRACE(row.label);
  AcceleratorConfig cfg = envelope_config(row.taps.dims(),
                                          row.taps.radius(), row.parvec,
                                          row.partime);
  // Tails in every blocked axis.
  ASSERT_NE(row.nx % cfg.csize_x(), 0) << row.label;
  if (cfg.dims == 3) {
    ASSERT_NE(row.ny % cfg.csize_y(), 0) << row.label;
  }
  const int iters = row.partime + 1;
  grid.fill_random(29, -1.0f, 1.0f);
  GridT interp = grid, want = grid;

  Telemetry tel;
  cfg.telemetry = &tel;
  ExactnessResult r;
  r.specialized = StencilAccelerator(row.taps, cfg).run(grid, iters);
  cfg.telemetry = nullptr;
  cfg.use_specialized_kernels = false;
  r.generic = StencilAccelerator(row.taps, cfg).run(interp, iters);
  r.cmp = compare_exact(grid, interp);
  expect_stats_parity(r, row.label + " vs interpreter");
  reference_run(row.taps, want, iters);
  const CompareResult ref = compare_exact(grid, want);
  EXPECT_TRUE(ref.identical()) << row.label << " vs reference: "
                               << ref.summary();
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_specialized").value(), 0)
      << row.label;
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(), 0)
      << row.label;
}

TEST(KernelDispatch, AnyClampTapSetDispatchesBitExact) {
  const float c = 0.375f;
  const std::vector<AnyTapRow> rows = {
      {"permuted star 2D r2", reversed(star_taps(2, 2))},
      {"permuted star 3D r2", reversed(star_taps(3, 2))},
      // FDTD one-sided derivatives: forward in x, backward in y.
      {"fdtd dx+ 2D", custom_taps(2, 1, {{0, 0, 0, -c}, {1, 0, 0, c}})},
      {"fdtd dy- 2D", custom_taps(2, 1, {{0, 0, 0, c}, {0, -1, 0, -c}})},
      {"fdtd dz+ 3D", custom_taps(3, 1, {{0, 0, 0, -c}, {0, 0, 1, c}})},
      {"identity 2D", custom_taps(2, 1, {{0, 0, 0, 1.0f}})},
      {"center 3D", custom_taps(3, 1, {{0, 0, 0, 0.5f}})},
      // Clamped images of (0,2,-1) and (-1,0,2) reach further than any
      // plain offset, so the interpreter's window must be sized from them.
      {"sparse asymmetric 3D r2",
       custom_taps(3, 2,
                   {{2, -1, 0, 0.3f},
                    {0, 0, 0, 0.5f},
                    {-1, 0, 2, 0.1f},
                    {0, 2, -1, 0.2f},
                    {1, 1, 1, -0.05f}})},
      {"star 2D r5", star_taps(2, 5)},
      {"box 3D r5", box_taps(3, 5), 4, 1},
      {"star 2D r2 parvec 2", star_taps(2, 2), 2},
      {"star 2D r2 parvec 32", star_taps(2, 2), 32},
      {"box 3D r1 parvec 2", box_taps(3, 1), 2},
      {"star 3D r2 parvec 32", star_taps(3, 2), 32},
      {"star 2D r2 partime 1", star_taps(2, 2), 4, 1},
      {"box 3D r2 partime 1", box_taps(3, 2), 4, 1},
      {"box 2D r1 partime 4", box_taps(2, 1), 8, 4},
      {"star 3D r1 partime 4", star_taps(3, 1), 8, 4},
  };
  for (const AnyTapRow& row : rows) {
    if (row.taps.dims() == 2) {
      expect_kernel_matches_oracles(row, Grid2D<float>(row.nx, row.ny));
    } else {
      expect_kernel_matches_oracles(row,
                                    Grid3D<float>(row.nx, row.ny, row.nz));
    }
  }
}

/// A boundary-condition case on a (possibly degenerate) grid.
struct BoundaryRow {
  std::string label;
  int dims;
  std::int64_t nx, ny, nz;  ///< nz ignored in 2D; ny 0: the least extent
};

/// Runs `taps` for `iters` steps on the block-parallel executor at
/// `workers` (telemetry attached) and on the naive reference; they must
/// agree bit for bit with every block on the kernel.
template <typename GridT>
void expect_dispatched_exact(const TapSet& taps, const AcceleratorConfig& cfg,
                             GridT grid, int iters, int workers) {
  grid.fill_random(37, -1.0f, 1.0f);
  GridT want = grid;
  Telemetry tel;
  RunOptions opts;
  opts.workers = workers;
  opts.telemetry = &tel;
  (void)run_block_parallel(taps, cfg, grid, iters, opts);
  reference_run(taps, want, iters);
  const CompareResult cmp = compare_exact(grid, want);
  EXPECT_TRUE(cmp.identical()) << cmp.summary();
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
}

TEST(KernelDispatch, EveryBoundaryDispatchesBitExact) {
  // r2 star, parvec 8, partime 2 (halo 4), 3 iterations (a 2-step pass
  // and a 1-step tail). `small` is 1, or R + 1 = 3 for reflective, the
  // least extent it accepts.
  constexpr int kR = 2;
  const BoundaryCondition bcs[] = {
      BoundaryCondition::clamp(), BoundaryCondition::periodic(),
      BoundaryCondition::reflective(), BoundaryCondition::dirichlet(0.75f)};
  const std::vector<BoundaryRow> rows = {
      {"2D nx 3 < halo < parvec", 2, 3, 29, 1},
      {"2D ny small", 2, 45, 0, 1},
      {"2D both small", 2, 3, 0, 1},
      {"2D tails", 2, 45, 23, 1},
      {"3D nx 3 < halo < parvec", 3, 3, 27, 9},
      {"3D ny small", 3, 45, 0, 9},
      {"3D nz 3 < steps*R", 3, 45, 27, 3},
      {"3D all 3", 3, 3, 3, 3},
      {"3D tails", 3, 45, 27, 9},
  };
  for (const BoundaryCondition& bc : bcs) {
    const std::int64_t small = bc.kind == BoundaryKind::reflective ? kR + 1 : 1;
    for (const BoundaryRow& row : rows) {
      const AcceleratorConfig cfg = envelope_config(row.dims, kR, 8);
      const TapSet taps = star_taps(row.dims, kR).with_boundary(bc);
      const std::int64_t ny = row.ny ? row.ny : small;
      for (int workers : {1, 4}) {
        SCOPED_TRACE(bc.describe() + " " + row.label + " workers " +
                     std::to_string(workers));
        if (row.dims == 2) {
          expect_dispatched_exact(taps, cfg, Grid2D<float>(row.nx, ny), 3,
                                  workers);
        } else {
          expect_dispatched_exact(taps, cfg, Grid3D<float>(row.nx, ny, row.nz),
                                  3, workers);
        }
      }
    }
    // The opt-out is the one fallback reason left, and the interpreter it
    // falls back to is bit-exact too.
    AcceleratorConfig cfg = envelope_config(2, kR, 8);
    cfg.use_specialized_kernels = false;
    Telemetry tel;
    cfg.telemetry = &tel;
    const TapSet taps = star_taps(2, kR).with_boundary(bc);
    Grid2D<float> g(45, 23);
    g.fill_random(31);
    Grid2D<float> want = g;
    (void)StencilAccelerator(taps, cfg).run(g, 3);
    reference_run(taps, want, 3);
    const CompareResult cmp = compare_exact(g, want);
    EXPECT_TRUE(cmp.identical()) << bc.describe() << ": " << cmp.summary();
    const std::int64_t fallback =
        tel.metrics().counter("kernels.dispatch_fallback").value();
    EXPECT_GT(fallback, 0) << bc.describe();
    EXPECT_EQ(
        tel.metrics().counter("kernels.dispatch_fallback.disabled").value(),
        fallback)
        << bc.describe();
    EXPECT_EQ(tel.metrics().counter("kernels.dispatch_specialized").value(), 0)
        << bc.describe();
  }
}

TEST(KernelDispatch, TelemetryCountsSpecializedDispatch) {
  AcceleratorConfig cfg = envelope_config(2, 1, 4);
  Telemetry tel;
  cfg.telemetry = &tel;
  const TapSet taps = star_taps(2, 1);
  Grid2D<float> g(40, 20);
  g.fill_random(3);
  StencilAccelerator accel(taps, cfg);
  (void)accel.run(g, 2);
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
  // One fixed retired-cell throughput gauge for every kernel block.
  EXPECT_GT(tel.metrics().gauge("kernels.cells_per_s").value(), 0);
}

TEST(KernelDispatch, BlockParallelUsesSpecializedPathBitExact) {
  AcceleratorConfig cfg = envelope_config(3, 2, 4);
  const TapSet taps = star_taps(3, 2);
  Grid3D<float> sync_grid(45, 27, 9), par_grid(45, 27, 9);
  sync_grid.fill_random(5, -1.0f, 1.0f);
  par_grid = sync_grid;

  StencilAccelerator accel(taps, cfg);
  const RunStats sync_stats = accel.run(sync_grid, 3);

  Telemetry tel;
  RunOptions opts;
  opts.workers = 3;
  opts.telemetry = &tel;
  const RunStats par_stats = run_block_parallel(taps, cfg, par_grid, 3, opts);

  const CompareResult cmp = compare_exact(sync_grid, par_grid);
  EXPECT_TRUE(cmp.identical()) << cmp.summary();
  // The worker merge sums the cone-trimmed stage-cell counts.
  EXPECT_EQ(par_stats.cells_computed, sync_stats.cells_computed);
  EXPECT_EQ(
      tel.metrics().gauge("block_parallel.compute_redundancy_milli").value(),
      std::int64_t(par_stats.compute_redundancy() * 1000.0));
}

TEST(KernelDispatch, CancellationAbortsSpecializedBlock) {
  AcceleratorConfig cfg = envelope_config(3, 2, 8);
  const TapSet taps = star_taps(3, 2);
  Grid3D<float> g(45, 27, 9);
  g.fill_random(13);
  const Grid3D<float> before = g;

  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  StencilAccelerator accel(taps, cfg);
  EXPECT_THROW(accel.run(g, 2, nullptr, &token), CancelledError);
  // The aborted pass never published: the grid still holds the input.
  const CompareResult cmp = compare_exact(g, before);
  EXPECT_TRUE(cmp.identical()) << cmp.summary();
}

}  // namespace
}  // namespace fpga_stencil
