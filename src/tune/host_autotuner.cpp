#include "tune/host_autotuner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/math_util.hpp"
#include "common/stopwatch.hpp"
#include "core/host_profile.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid.hpp"

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

/// Same value-identity hash the engine's PlanCache uses for tap sets
/// (offsets + coefficient bits, order included). Re-derived here because
/// the tuner sits below the engine in the link order.
std::uint64_t taps_value_hash(const TapSet& taps) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, std::uint64_t(taps.dims()));
  fnv_mix(h, std::uint64_t(taps.radius()));
  for (const Tap& t : taps.taps()) {
    fnv_mix(h, std::uint64_t(t.dx));
    fnv_mix(h, std::uint64_t(t.dy));
    fnv_mix(h, std::uint64_t(t.dz));
    fnv_mix(h, std::bit_cast<std::uint32_t>(t.coeff));
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[std::size_t(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// Nearest power of two: one search serves every grid in the same decade
/// of each extent (a 500^3 and a 512^3 grid want the same geometry).
std::int64_t extent_bucket(std::int64_t v) {
  if (v <= 1) return 1;
  const int exp = int(std::llround(std::log2(double(v))));
  return std::int64_t(1) << std::max(exp, 0);
}

HostAutotunerOptions resolve_options(HostAutotunerOptions o) {
  if (o.cache_path == "auto") {
    const char* env = std::getenv("FPGASTENCIL_TUNING_CACHE");
    o.cache_path = env != nullptr ? env : "";
  }
#if defined(FPGASTENCIL_SANITIZE_BUILD)
  // Sanitizer builds run every instruction ~10x slower; shrink the probe
  // protocol so tuning-labeled suites stay fast. Ranking quality does not
  // matter under sanitizers -- the suites check plumbing and exactness.
  if (o.probe_cells <= 0) o.probe_cells = 16 * 1024;
  if (o.probe_repeats <= 0) o.probe_repeats = 1;
  o.candidates.max_candidates = std::min<std::size_t>(
      o.candidates.max_candidates, 6);
#else
  if (o.probe_cells <= 0) o.probe_cells = 512 * 1024;
  if (o.probe_repeats <= 0) o.probe_repeats = 2;
#endif
  return o;
}

}  // namespace

HostAutotuner::HostAutotuner(HostAutotunerOptions options)
    : options_(resolve_options(std::move(options))),
      cache_(options_.cache_path) {}

std::string HostAutotuner::stencil_fingerprint(const TapSet& taps,
                                               const AcceleratorConfig& base) {
  // Everything tuning may NOT change is part of the identity: the stencil
  // itself, dims/radius, the vector width, and whether the array kernel
  // is in play (it changes which code runs).
  std::ostringstream os;
  os << hex64(taps_value_hash(taps)) << "-d" << base.dims << "r" << base.radius
     << "v" << base.parvec << "l" << base.stage_lag
     << (base.use_specialized_kernels ? "" : "-generic");
  return os.str();
}

std::string HostAutotuner::extents_class(int dims, std::int64_t nx,
                                         std::int64_t ny, std::int64_t nz) {
  std::ostringstream os;
  os << "x" << extent_bucket(nx) << "y" << extent_bucket(ny);
  if (dims == 3) os << "z" << extent_bucket(nz);
  return os.str();
}

double HostAutotuner::probe(const TapSet& taps, const AcceleratorConfig& cfg,
                            std::int64_t nx, std::int64_t ny, std::int64_t nz,
                            const CancellationToken* cancel) const {
  AcceleratorConfig pcfg = cfg;
  pcfg.telemetry = nullptr;  // probes are not the workload; keep them silent
  const AcceleratorConfig rcfg = resolve_stage_lag(taps, pcfg);
  const BlockingPlan full = make_blocking_plan(rcfg, nx, ny, nz);

  // Calibration slab: keep the blocked extents (block count, partial-block
  // waste, and per-block cache behavior all match the real grid), shorten
  // only the streamed dimension to the probe budget. The measurement is
  // seconds per *streamed* cell, which is geometry- but not length-
  // dependent, so the full-grid throughput below is a rescale, not an
  // extrapolation of warm-up effects.
  const std::int64_t row_area = rcfg.dims == 3 ? nx * ny : nx;
  const std::int64_t want =
      rcfg.stream_drain() +
      std::max<std::int64_t>(4, ceil_div(options_.probe_cells, row_area));
  const int iters = rcfg.partime;  // exactly one pass at full temporal depth

  double best_seconds = 0.0;
  std::int64_t streamed = 0;
  const auto measure = [&](auto& init, auto& work) {
    for (int rep = 0; rep <= options_.probe_repeats; ++rep) {
      if (cancel != nullptr) cancel->throw_if_cancelled();
      work = init;
      StencilAccelerator accel(taps, rcfg);
      const Stopwatch clock;
      const RunStats stats = accel.run(work, iters, nullptr, cancel);
      const double sec = double(clock.nanoseconds()) / 1e9;
      // rep 0 is the warm-up (page faults, frequency ramp); keep best-of
      // for the timed repeats.
      if (rep > 0 && (best_seconds == 0.0 || sec < best_seconds)) {
        best_seconds = sec;
      }
      streamed = stats.cells_streamed;
    }
  };

  if (rcfg.dims == 2) {
    const std::int64_t slab_ny = std::min(ny, want);
    Grid2D<float> init(nx, slab_ny);
    init.fill_random(0x70be, -1.0f, 1.0f);
    Grid2D<float> work(nx, slab_ny);
    measure(init, work);
  } else {
    const std::int64_t slab_nz = std::min(nz, want);
    Grid3D<float> init(nx, ny, slab_nz);
    init.fill_random(0x70be, -1.0f, 1.0f);
    Grid3D<float> work(nx, ny, slab_nz);
    measure(init, work);
  }
  if (best_seconds <= 0.0 || streamed <= 0) return 0.0;

  // Rescale to the target grid: one full pass streams full.cells_streamed
  // cells and advances `partime` time steps.
  const double sec_per_streamed_cell = best_seconds / double(streamed);
  const double step_seconds =
      sec_per_streamed_cell * double(full.cells_streamed) /
      double(rcfg.partime);
  return step_seconds > 0.0 ? double(full.valid_cells) / step_seconds / 1e6
                            : 0.0;
}

AutotuneOutcome HostAutotuner::search(const TapSet& taps,
                                      const AcceleratorConfig& base,
                                      std::int64_t nx, std::int64_t ny,
                                      std::int64_t nz,
                                      const CancellationToken* cancel) {
  const Stopwatch clock;
  const std::vector<AcceleratorConfig> candidates =
      enumerate_plan_candidates(base, nx, ny, nz, options_.candidates);

  AutotuneOutcome out;
  out.searched = true;
  out.candidates_probed = std::int64_t(candidates.size());
  double best = -1.0;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double mcells = probe(taps, candidates[i], nx, ny, nz, cancel);
    if (i == 0) out.baseline_mcells = mcells;  // the request itself
    if (mcells > best) {
      best = mcells;
      best_index = i;
    }
  }
  out.config = candidates[best_index];
  out.tuned_mcells = best;
  out.search_ns = clock.nanoseconds();

  TunedPlanEntry entry;
  entry.bsize_x = out.config.bsize_x;
  entry.bsize_y = out.config.bsize_y;
  entry.partime = out.config.partime;
  entry.tuned_mcells = out.tuned_mcells;
  entry.baseline_mcells = out.baseline_mcells;
  entry.candidates_probed = out.candidates_probed;
  cache_.put({stencil_fingerprint(taps, base),
              extents_class(base.dims, nx, ny, nz),
              host_profile().fingerprint()},
             entry);
  return out;
}

std::optional<AutotuneOutcome> HostAutotuner::resolve(
    const TapSet& taps, const AcceleratorConfig& base, std::int64_t nx,
    std::int64_t ny, std::int64_t nz, AutotuneMode mode,
    const CancellationToken* cancel) {
  if (mode == AutotuneMode::off) return std::nullopt;

  const TuningKey key{stencil_fingerprint(taps, base),
                      extents_class(base.dims, nx, ny, nz),
                      host_profile().fingerprint()};
  if (const std::optional<TunedPlanEntry> entry = cache_.find(key)) {
    AcceleratorConfig cfg = base;
    cfg.bsize_x = entry->bsize_x;
    cfg.bsize_y = entry->bsize_y;
    cfg.partime = entry->partime;
    bool valid = true;
    try {
      cfg.validate();
    } catch (const ConfigError&) {
      valid = false;  // stale entry (e.g. hand-edited): ignore it
    }
    if (valid) {
      AutotuneOutcome out;
      out.config = cfg;
      out.tuned_mcells = entry->tuned_mcells;
      out.baseline_mcells = entry->baseline_mcells;
      out.from_cache = true;
      out.candidates_probed = entry->candidates_probed;
      return out;
    }
  }
  if (mode == AutotuneMode::cached_only) return std::nullopt;
  return search(taps, base, nx, ny, nz, cancel);
}

HostAutotuner& HostAutotuner::process_default() {
  static HostAutotuner instance{};
  return instance;
}

}  // namespace fpga_stencil
