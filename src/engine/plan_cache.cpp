#include "engine/plan_cache.hpp"

#include <bit>

#include "codegen/kernel_generator.hpp"
#include "core/stencil_accelerator.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
}

std::uint64_t fnv_bytes(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t tap_set_fingerprint(const TapSet& taps) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, std::uint64_t(taps.dims()));
  fnv_mix(h, std::uint64_t(taps.radius()));
  for (const Tap& t : taps.taps()) {
    fnv_mix(h, std::uint64_t(t.dx));
    fnv_mix(h, std::uint64_t(t.dy));
    fnv_mix(h, std::uint64_t(t.dz));
    fnv_mix(h, std::bit_cast<std::uint32_t>(t.coeff));
  }
  // The boundary condition is part of the stencil's value identity, but
  // clamp -- the default and the only kind that existed before PR 10 --
  // is deliberately NOT mixed in: a clamp tap set must fingerprint
  // exactly as it always has, so warm TuningCache / PlanCache entries
  // (keyed by this value) survive the upgrade.
  const BoundaryCondition& bc = taps.boundary();
  if (!bc.is_clamp()) {
    fnv_mix(h, std::uint64_t(bc.kind));
    fnv_mix(h, std::bit_cast<std::uint32_t>(bc.value));
  }
  return h;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

PlanCache::Key PlanCache::make_key(const TapSet& taps,
                                   const AcceleratorConfig& cfg,
                                   std::int64_t nx, std::int64_t ny,
                                   std::int64_t nz, AutotuneMode mode) {
  Key k;
  k.taps_fp = tap_set_fingerprint(taps);
  k.dims = cfg.dims;
  k.radius = cfg.radius;
  k.parvec = cfg.parvec;
  k.partime = cfg.partime;
  k.stage_lag = cfg.stage_lag;
  k.bsize_x = cfg.bsize_x;
  k.bsize_y = cfg.bsize_y;
  k.nx = nx;
  k.ny = ny;
  k.nz = nz;
  k.use_specialized_kernels = cfg.use_specialized_kernels;
  k.autotune_mode = int(mode);
  return k;
}

std::shared_ptr<const CachedPlan> PlanCache::lookup_or_build(
    const TapSet& taps, const AcceleratorConfig& cfg, std::int64_t nx,
    std::int64_t ny, std::int64_t nz, bool* hit, const PlanAutotune& autotune) {
  const AutotuneMode mode =
      autotune.tuner != nullptr ? autotune.mode : AutotuneMode::off;
  const Key key = make_key(taps, cfg, nx, ny, nz, mode);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->key == key) {
        entries_.splice(entries_.begin(), entries_, it);
        ++hits_;
        if (hit) *hit = true;
        return entries_.front().plan;
      }
    }
  }
  // Build outside the lock: validation + codegen can be slow, and a
  // ConfigError must not leave the cache locked or poisoned. Two threads
  // may race to build the same key; the loser's insert below dedups.
  auto plan = std::make_shared<CachedPlan>();
  // The cached config must be hook-free: the key deliberately ignores the
  // telemetry pointer (not a performance knob), so whatever hook the first
  // builder carried must not leak into every later job sharing the plan.
  AcceleratorConfig clean = cfg;
  clean.telemetry = nullptr;
  // Tuning happens here -- once per cached plan, outside the lock, in the
  // submitting worker's thread with its cancellation token. Jobs that hit
  // the cache never pay a probe.
  if (mode != AutotuneMode::off) {
    if (const std::optional<AutotuneOutcome> tuned = autotune.tuner->resolve(
            taps, clean, nx, ny, nz, mode, autotune.cancel)) {
      clean = tuned->config;
      plan->tuned = true;
      plan->tuned_from_cache = tuned->from_cache;
      plan->tuned_mcells = tuned->tuned_mcells;
      plan->tuned_baseline_mcells = tuned->baseline_mcells;
      plan->tuner_candidates_probed = tuned->candidates_probed;
      plan->tuner_search_ns = tuned->search_ns;
    }
  }
  plan->config = resolve_stage_lag(taps, clean);
  plan->blocking = make_blocking_plan(plan->config, nx, ny, nz);
  if (taps.boundary().is_clamp()) {
    const std::string source =
        generate_tap_kernel_source(taps, {plan->config, false});
    plan->kernel_fingerprint = fnv_bytes(source);
    plan->kernel_source_bytes = std::int64_t(source.size());
  } else {
    // The OpenCL generator emits clamp boundaries only, so there is no
    // source to hash: the tap set (boundary included) plus the resolved
    // geometry it would be compiled for name the kernel instead.
    std::uint64_t h = tap_set_fingerprint(taps);
    const AcceleratorConfig& c = plan->config;
    for (const std::int64_t knob :
         {std::int64_t(c.dims), std::int64_t(c.radius), c.bsize_x, c.bsize_y,
          std::int64_t(c.parvec), std::int64_t(c.partime),
          std::int64_t(c.stage_lag)}) {
      fnv_mix(h, std::uint64_t(knob));
    }
    plan->kernel_fingerprint = h;
    plan->kernel_source_bytes = 0;
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  if (hit) *hit = false;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {  // a racing builder beat us; adopt its plan
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().plan;
    }
  }
  entries_.push_front(Entry{key, plan});
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    ++evictions_;
  }
  return plan;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::int64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace fpga_stencil
