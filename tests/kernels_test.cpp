// The specialized kernel subsystem's contract: every KernelRegistry entry
// is bit-exact with the scalar interpreter (the semantic reference), the
// registry matches exactly the canonical star/box envelope and nothing
// else, off-envelope configurations fall back to the interpreter, and
// dispatch is observable through telemetry and the plan cache.
//
// The exactness sweeps run the whole envelope -- star/box x 2D/3D x
// radius 1-4 x parvec {1,4,8,16} -- through StencilAccelerator twice
// (dispatch on / forced interpreter) on grids chosen so every block shape
// occurs: interior blocks, partial tail blocks in each blocked dimension,
// and a tail pass with fewer steps than partime. At partime 4 the tail
// pass is a single step, so its stage cones sit furthest inside the halo.
// TrimmedConeComputeCount pins the kernels' cone-trimmed work to its
// closed form.
#include <gtest/gtest.h>

#include "common/math_util.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "kernels/kernel_registry.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

constexpr int kRadii[] = {1, 2, 3, 4};
constexpr int kParvecs[] = {1, 4, 8, 16};

TapSet envelope_taps(StencilShape shape, int dims, int radius,
                     std::uint64_t seed = 99) {
  if (shape == StencilShape::kStar) {
    return StarStencil::make_benchmark(dims, radius, seed).to_taps();
  }
  return make_box_stencil(dims, radius, seed);
}

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

TEST(KernelRegistry, CoversExactlyTheEnvelope) {
  const KernelRegistry& reg = KernelRegistry::instance();
  EXPECT_EQ(reg.entries().size(), 64u);
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int dims : {2, 3}) {
      for (int rad : kRadii) {
        for (int pv : kParvecs) {
          const SpecializedKernel* k = reg.lookup(shape, dims, rad, pv);
          ASSERT_NE(k, nullptr);
          EXPECT_EQ(k->shape, shape);
          EXPECT_EQ(k->dims, dims);
          EXPECT_EQ(k->radius, rad);
          EXPECT_EQ(k->parvec, pv);
          EXPECT_NE(dims == 2 ? (void*)k->run_2d : (void*)k->run_3d, nullptr);
          EXPECT_NE(std::string(k->name).find(stencil_shape_name(shape)),
                    std::string::npos);
        }
      }
    }
  }
  EXPECT_EQ(reg.lookup(StencilShape::kStar, 2, 5, 4), nullptr);  // radius 5
  EXPECT_EQ(reg.lookup(StencilShape::kStar, 2, 1, 2), nullptr);  // parvec 2
}

TEST(KernelRegistry, FindMatchesCanonicalOrdersOnly) {
  const KernelRegistry& reg = KernelRegistry::instance();
  for (int dims : {2, 3}) {
    for (int rad : kRadii) {
      const TapSet star = envelope_taps(StencilShape::kStar, dims, rad);
      const TapSet box = envelope_taps(StencilShape::kBox, dims, rad);
      EXPECT_TRUE(matches_canonical_star(star));
      EXPECT_FALSE(matches_canonical_box(star));
      EXPECT_TRUE(matches_canonical_box(box));
      EXPECT_FALSE(matches_canonical_star(box));
      const AcceleratorConfig cfg = envelope_config(dims, rad, 4);
      EXPECT_NE(reg.find(star, cfg), nullptr);
      EXPECT_NE(reg.find(box, cfg), nullptr);

      // Same taps, reversed order: a different stencil bit-wise, so it
      // must not match (the kernels hard-code the accumulation order).
      std::vector<Tap> reversed(star.taps().rbegin(), star.taps().rend());
      const TapSet custom(dims, rad, std::move(reversed));
      EXPECT_EQ(reg.find(custom, cfg), nullptr);
    }
  }
}

void envelope_sweep_2d(int partime) {
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int rad : kRadii) {
      for (int pv : kParvecs) {
        const AcceleratorConfig cfg = envelope_config(2, rad, pv, partime);
        const TapSet taps = envelope_taps(shape, 2, rad);
        const ExactnessResult r = run_both_2d(taps, cfg, 45, 23, partime + 1);
        expect_stats_parity(r, std::string(stencil_shape_name(shape)) +
                                   " 2D r" + std::to_string(rad) + " v" +
                                   std::to_string(pv) + " partime" +
                                   std::to_string(partime));
      }
    }
  }
}

void envelope_sweep_3d(int partime, std::int64_t ny, std::int64_t nz) {
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int rad : kRadii) {
      for (int pv : kParvecs) {
        const AcceleratorConfig cfg = envelope_config(3, rad, pv, partime);
        const TapSet taps = envelope_taps(shape, 3, rad);
        const ExactnessResult r =
            run_both_3d(taps, cfg, 45, ny, nz, partime + 1);
        expect_stats_parity(r, std::string(stencil_shape_name(shape)) +
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
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int dims : {2, 3}) {
      const AcceleratorConfig cfg = envelope_config(dims, 2, 4, 3);
      const TapSet taps = envelope_taps(shape, dims, 2);
      const int iters = cfg.partime + 1;
      const std::int64_t nz = dims == 3 ? 9 : 1;
      const ExactnessResult r =
          dims == 3 ? run_both_3d(taps, cfg, 45, 27, nz, iters)
                    : run_both_2d(taps, cfg, 45, 27, iters);
      const std::string label = std::string(stencil_shape_name(shape)) +
                                " " + std::to_string(dims) + "D";
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
  StencilAccelerator accel(envelope_taps(StencilShape::kStar, 3, 4), cfg);
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
  const TapSet taps = envelope_taps(StencilShape::kStar, 3, 4);
  const ExactnessResult r = run_both_3d(taps, cfg, 52, 40, 11, 6);
  expect_stats_parity(r, "star 3D r4 v8 partime4");
}

TEST(KernelDispatch, OffEnvelopeFallsBackBitExact) {
  // parvec 2 is off-envelope: both runs take the interpreter, results
  // identical, and telemetry shows fallback dispatches only.
  AcceleratorConfig cfg = envelope_config(2, 2, 2);
  Telemetry tel;
  cfg.telemetry = &tel;
  const TapSet taps = envelope_taps(StencilShape::kStar, 2, 2);
  EXPECT_EQ(KernelRegistry::instance().find(taps, cfg), nullptr);
  const ExactnessResult r = run_both_2d(taps, cfg, 45, 23, 3);
  expect_stats_parity(r, "star 2D r2 v2 (off-envelope)");
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
}

TEST(KernelDispatch, TelemetryCountsSpecializedDispatch) {
  AcceleratorConfig cfg = envelope_config(2, 1, 4);
  Telemetry tel;
  cfg.telemetry = &tel;
  const TapSet taps = envelope_taps(StencilShape::kStar, 2, 1);
  Grid2D<float> g(40, 20);
  g.fill_random(3);
  StencilAccelerator accel(taps, cfg);
  (void)accel.run(g, 2);
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
  // Per-kernel throughput gauge was published under the kernel's name.
  EXPECT_GE(tel.metrics().gauge("kernels.star_2d_r1_v4.cells_per_s").value(),
            0);
}

TEST(KernelDispatch, BlockParallelUsesSpecializedPathBitExact) {
  AcceleratorConfig cfg = envelope_config(3, 2, 4);
  const TapSet taps = envelope_taps(StencilShape::kStar, 3, 2);
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
  const TapSet taps = envelope_taps(StencilShape::kStar, 3, 2);
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
