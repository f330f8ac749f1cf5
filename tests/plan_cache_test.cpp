// Tests for the engine's plan cache (LRU, key sensitivity, validation) and
// buffer pool (reuse accounting, best-fit, retention cap).
#include <gtest/gtest.h>

#include "codegen/kernel_generator.hpp"
#include "common/buffer_pool.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/plan_cache.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig cfg2d(int radius = 1, int parvec = 4, int partime = 2) {
  AcceleratorConfig c;
  c.dims = 2;
  c.radius = radius;
  c.bsize_x = 32;
  c.parvec = parvec;
  c.partime = partime;
  return c;
}

TapSet star2d(int radius = 1, unsigned seed = 7) {
  return StarStencil::make_benchmark(2, radius, seed).to_taps();
}

TEST(TapSetFingerprint, StableAcrossEqualValueTapSets) {
  EXPECT_EQ(tap_set_fingerprint(star2d()), tap_set_fingerprint(star2d()));
  EXPECT_NE(tap_set_fingerprint(star2d(1, 7)),
            tap_set_fingerprint(star2d(1, 8)));  // different coefficients
  EXPECT_NE(tap_set_fingerprint(star2d(1)), tap_set_fingerprint(star2d(2)));
}

TEST(TapSetFingerprint, OrderIsPartOfTheIdentity) {
  // The tap order is the accumulation order, hence part of the bit-exact
  // contract: reordered taps are a different stencil.
  std::vector<Tap> taps = star2d().taps();
  std::swap(taps[0], taps[1]);
  const TapSet reordered(2, 1, taps);
  EXPECT_NE(tap_set_fingerprint(star2d()), tap_set_fingerprint(reordered));
}

TEST(PlanCache, HitMissAndLruEviction) {
  PlanCache cache(2);
  const TapSet taps = star2d();
  const AcceleratorConfig cfg = cfg2d();
  bool hit = true;

  (void)cache.lookup_or_build(taps, cfg, 64, 32, 1, &hit);
  EXPECT_FALSE(hit);
  (void)cache.lookup_or_build(taps, cfg, 64, 32, 1, &hit);
  EXPECT_TRUE(hit);
  (void)cache.lookup_or_build(taps, cfg, 128, 32, 1, &hit);
  EXPECT_FALSE(hit);
  // Touch 64x32 so 128x32 becomes the LRU victim of the next insert.
  (void)cache.lookup_or_build(taps, cfg, 64, 32, 1, &hit);
  EXPECT_TRUE(hit);
  (void)cache.lookup_or_build(taps, cfg, 96, 32, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  // The evicted extents rebuild; the recently-touched ones still hit.
  (void)cache.lookup_or_build(taps, cfg, 128, 32, 1, &hit);
  EXPECT_FALSE(hit);
  (void)cache.lookup_or_build(taps, cfg, 96, 32, 1, &hit);
  EXPECT_TRUE(hit);

  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(PlanCache, KeyIsSensitiveToConfigAndCoefficients) {
  PlanCache cache(8);
  bool hit = true;
  (void)cache.lookup_or_build(star2d(), cfg2d(1, 4), 64, 32, 1, &hit);
  EXPECT_FALSE(hit);
  // Same extents, different vector width: a different plan (and a
  // different bitstream on a real system).
  (void)cache.lookup_or_build(star2d(), cfg2d(1, 2), 64, 32, 1, &hit);
  EXPECT_FALSE(hit);
  // Same shape, different coefficients: different stencil.
  (void)cache.lookup_or_build(star2d(1, 9), cfg2d(1, 4), 64, 32, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(PlanCache, InvalidConfigurationsAreNeverCached) {
  PlanCache cache(4);
  AcceleratorConfig bad = cfg2d();
  bad.bsize_x = 4;  // halo (partime*rad = 2 per side) eats the block
  EXPECT_THROW(
      (void)cache.lookup_or_build(star2d(), bad, 64, 32, 1, nullptr),
      ConfigError);
  EXPECT_EQ(cache.size(), 0u);
  // The cache stays serviceable after the failed build.
  bool hit = true;
  (void)cache.lookup_or_build(star2d(), cfg2d(), 64, 32, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, CachedPlanIsResolvedAndFingerprinted) {
  PlanCache cache(4);
  const auto star_plan =
      cache.lookup_or_build(star2d(), cfg2d(), 64, 32, 1, nullptr);
  EXPECT_EQ(star_plan->config.stage_lag, 1);  // star: lag == radius
  EXPECT_EQ(star_plan->blocking.valid_cells, 64 * 32);
  EXPECT_NE(star_plan->kernel_fingerprint, 0u);
  EXPECT_GT(star_plan->kernel_source_bytes, 0);

  // Box corners reach past `radius` whole rows: lag resolves to rad + 1,
  // and the generated kernel differs from the star's.
  const auto box_plan = cache.lookup_or_build(make_box_stencil(2, 1), cfg2d(),
                                              64, 32, 1, nullptr);
  EXPECT_EQ(box_plan->config.stage_lag, 2);
  EXPECT_NE(box_plan->kernel_fingerprint, star_plan->kernel_fingerprint);
}

TEST(PlanCache, EveryBoundaryConditionFingerprintsItsOwnKernel) {
  // Only clamp plans have OpenCL source; the other conditions fingerprint
  // the tap set and geometry instead of a clamp kernel's text.
  PlanCache cache(8);
  const TapSet box = make_box_stencil(2, 1, 3);
  std::vector<std::uint64_t> fingerprints;
  for (const BoundaryCondition bc :
       {BoundaryCondition::clamp(), BoundaryCondition::periodic(),
        BoundaryCondition::reflective(), BoundaryCondition::dirichlet(1.5f)}) {
    const auto plan = cache.lookup_or_build(box.with_boundary(bc), cfg2d(),
                                            64, 32, 1, nullptr);
    EXPECT_NE(plan->kernel_fingerprint, 0u) << bc.describe();
    // The clamp plan still hashes its generated source.
    EXPECT_EQ(plan->kernel_source_bytes,
              bc.is_clamp() ? std::int64_t(generate_tap_kernel_source(
                                               box, {plan->config, false})
                                               .size())
                            : 0)
        << bc.describe();
    for (const std::uint64_t other : fingerprints) {
      EXPECT_NE(plan->kernel_fingerprint, other) << bc.describe();
    }
    fingerprints.push_back(plan->kernel_fingerprint);
  }
}

/// Runs one 64x32 job on `plan`'s config with telemetry attached and
/// returns the {array kernel, interpreter} block counts.
std::pair<std::int64_t, std::int64_t> dispatch_counts(const TapSet& taps,
                                                      const CachedPlan& plan) {
  Telemetry tel;
  AcceleratorConfig cfg = plan.config;
  cfg.telemetry = &tel;
  Grid2D<float> g(64, 32);
  g.fill_random(3);
  (void)StencilAccelerator(taps, cfg).run(g, 2);
  return {tel.metrics().counter("kernels.dispatch_specialized").value(),
          tel.metrics().counter("kernels.dispatch_fallback").value()};
}

TEST(PlanCache, PlanConfigDecidesKernelDispatch) {
  PlanCache cache(8);
  // A clamp star plan runs every block on the array kernel, whatever its
  // parvec...
  const auto fast_plan =
      cache.lookup_or_build(star2d(), cfg2d(1, 4), 64, 32, 1, nullptr);
  for (int parvec : {4, 2}) {
    const auto plan =
        cache.lookup_or_build(star2d(), cfg2d(1, parvec), 64, 32, 1, nullptr);
    const auto [kernel, fallback] = dispatch_counts(star2d(), *plan);
    EXPECT_GT(kernel, 0) << "parvec " << parvec;
    EXPECT_EQ(fallback, 0) << "parvec " << parvec;
  }

  // ...and opting out of dispatch is part of the key (it changes which
  // code runs), so it builds a distinct, interpreter-bound plan.
  AcceleratorConfig generic = cfg2d(1, 4);
  generic.use_specialized_kernels = false;
  bool hit = true;
  const auto opted_out =
      cache.lookup_or_build(star2d(), generic, 64, 32, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(opted_out.get(), fast_plan.get());
  const auto [slow_kernel, slow_fallback] = dispatch_counts(star2d(), *opted_out);
  EXPECT_EQ(slow_kernel, 0);
  EXPECT_GT(slow_fallback, 0);
}

TEST(PlanCache, EvictedPlansSurviveWhileHeld) {
  PlanCache cache(1);
  const auto held =
      cache.lookup_or_build(star2d(), cfg2d(), 64, 32, 1, nullptr);
  (void)cache.lookup_or_build(star2d(), cfg2d(), 128, 32, 1, nullptr);
  EXPECT_EQ(cache.evictions(), 1);
  // shared_ptr keeps the evicted plan alive for the job still running it.
  EXPECT_EQ(held->blocking.valid_cells, 64 * 32);
}

TEST(BufferPool, ReusesReleasedStorage) {
  BufferPool pool;
  std::vector<float> b = pool.acquire(1000);
  const float* data = b.data();
  pool.release(std::move(b));
  // A smaller request reuses the same backing store.
  std::vector<float> again = pool.acquire(500);
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(again.size(), 500u);
  EXPECT_EQ(pool.acquires(), 2);
  EXPECT_EQ(pool.allocations(), 1);
  EXPECT_EQ(pool.reuses(), 1);
}

TEST(BufferPool, BestFitPrefersTheSmallestSufficientBuffer) {
  BufferPool pool;
  std::vector<float> small = pool.acquire(64);
  std::vector<float> large = pool.acquire(4096);
  pool.release(std::move(large));
  pool.release(std::move(small));
  // 32 floats fit in both; the 64-float buffer must be chosen so the big
  // one stays available for big jobs.
  std::vector<float> got = pool.acquire(32);
  EXPECT_LT(got.capacity(), 4096u);
  ASSERT_EQ(pool.retained(), 1u);
  std::vector<float> big = pool.acquire(4000);
  EXPECT_EQ(pool.reuses(), 2);
  EXPECT_EQ(pool.allocations(), 2);
  pool.release(std::move(got));
  pool.release(std::move(big));
}

TEST(BufferPool, RetentionCapAndEmptyReleases) {
  BufferPool pool(/*max_retained=*/2);
  std::vector<float> a = pool.acquire(10);
  std::vector<float> b = pool.acquire(10);
  std::vector<float> c = pool.acquire(10);
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // beyond the cap: dropped
  EXPECT_EQ(pool.retained(), 2u);
  // Storage lost to an aborted pass comes back as an empty vector; the
  // pool must not retain a dead entry.
  pool.release(std::vector<float>{});
  EXPECT_EQ(pool.retained(), 2u);
  EXPECT_GT(pool.retained_bytes(), 0);
  pool.clear();
  EXPECT_EQ(pool.retained(), 0u);
  EXPECT_EQ(pool.retained_bytes(), 0);
}

TEST(BufferPool, LeaseReturnsStorageOnScopeExit) {
  BufferPool pool;
  {
    BufferPool::Lease lease(pool, 128);
    EXPECT_EQ(lease.buffer().size(), 128u);
    EXPECT_EQ(pool.retained(), 0u);
  }
  EXPECT_EQ(pool.retained(), 1u);
  {
    BufferPool::Lease lease(pool, 64);
    (void)lease;
  }
  EXPECT_EQ(pool.allocations(), 1);
  EXPECT_EQ(pool.reuses(), 1);
}

}  // namespace
}  // namespace fpga_stencil
