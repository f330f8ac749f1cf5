// Empirical host autotuner: measured-throughput plan search.
//
// The model-based tuner next door (tune/tuner.*) ranks configurations
// against an FPGA's DSP/bandwidth budget. This one answers a different
// question: of the block geometries and temporal depths that all compute
// the same bit-exact result, which is fastest *on this host*? It
// enumerates candidates seeded by the cache hierarchy
// (core/plan_candidates), measures each with short timed probes through
// the real stream_block path on a calibration slab, and returns the
// argmax with its measured Mcell/s. The requested ("paper default")
// geometry is always probed too, so tuning can never lose to it on the
// probe workload.
//
// Winners persist in a TuningCache keyed by (stencil fingerprint,
// extents-class, host fingerprint): one search per machine per workload
// class, every later process -- and every later plan-cache build -- reads
// the answer back. See docs/TUNING.md for the probe protocol, the cache
// format, and how to pin a plan manually.
//
// Thread-safe: concurrent resolve() calls may race to probe the same key
// (each lands the same winner modulo timing noise); the cache write is
// atomic either way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/cancellation.hpp"
#include "core/plan_candidates.hpp"
#include "core/run_options.hpp"
#include "stencil/tap_set.hpp"
#include "tune/tuning_cache.hpp"

namespace fpga_stencil {

struct HostAutotunerOptions {
  /// TuningCache file. "auto" resolves $FPGASTENCIL_TUNING_CACHE (unset ->
  /// in-memory only); "" is in-memory only; anything else is a literal
  /// path.
  std::string cache_path = "auto";
  /// Calibration-slab budget: the probe grid keeps the blocked extents of
  /// the real grid but shortens the streamed dimension to roughly this
  /// many cells. 0 keeps the default (shrunk under sanitizer builds so
  /// instrumented suites stay fast).
  std::int64_t probe_cells = 0;
  /// Timed repeats per candidate (best-of); 0 keeps the default.
  int probe_repeats = 0;
  /// Candidate enumeration knobs (cache sizes default to host_profile()).
  PlanCandidateOptions candidates;
};

/// One resolved tuning decision.
struct AutotuneOutcome {
  AcceleratorConfig config;      ///< the plan to run (geometry possibly
                                 ///< swapped; parvec/stencil untouched)
  double tuned_mcells = 0.0;     ///< probe throughput of `config`
  double baseline_mcells = 0.0;  ///< probe throughput of the request
  bool from_cache = false;       ///< served from the TuningCache
  bool searched = false;         ///< this call ran the probe search
  std::int64_t candidates_probed = 0;
  std::int64_t search_ns = 0;    ///< wall time of the search (0 on cache hit)

  [[nodiscard]] double gain() const {
    return baseline_mcells > 0.0 ? tuned_mcells / baseline_mcells : 1.0;
  }
};

class HostAutotuner {
 public:
  explicit HostAutotuner(HostAutotunerOptions options = {});

  HostAutotuner(const HostAutotuner&) = delete;
  HostAutotuner& operator=(const HostAutotuner&) = delete;

  /// Resolves the plan to run for (taps, base, extents) under `mode`:
  ///   off         -> nullopt (caller keeps `base`)
  ///   cached_only -> the cached winner, or nullopt on a cache miss
  ///   search      -> the cached winner, or probe-search + persist
  /// The returned config is `base` with only bsize_x/bsize_y/partime
  /// changed, re-validated; a cached entry that no longer validates
  /// against this request is ignored (and re-searched under `search`).
  /// A tripped `cancel` token aborts mid-search with CancelledError /
  /// DeadlineExceededError -- nothing is cached.
  std::optional<AutotuneOutcome> resolve(const TapSet& taps,
                                         const AcceleratorConfig& base,
                                         std::int64_t nx, std::int64_t ny,
                                         std::int64_t nz, AutotuneMode mode,
                                         const CancellationToken* cancel =
                                             nullptr);

  /// Unconditional probe search (no cache read; the result is persisted).
  /// Outcome.config is the measured argmax over enumerate_plan_candidates.
  AutotuneOutcome search(const TapSet& taps, const AcceleratorConfig& base,
                         std::int64_t nx, std::int64_t ny, std::int64_t nz,
                         const CancellationToken* cancel = nullptr);

  /// One timed probe: measured Mcell/s of `cfg` on the calibration slab
  /// derived from (nx, ny, nz). Deterministic slab content; best-of
  /// repeats after one warm-up run.
  [[nodiscard]] double probe(const TapSet& taps, const AcceleratorConfig& cfg,
                             std::int64_t nx, std::int64_t ny, std::int64_t nz,
                             const CancellationToken* cancel = nullptr) const;

  [[nodiscard]] TuningCache& cache() { return cache_; }
  [[nodiscard]] const HostAutotunerOptions& options() const {
    return options_;
  }

  /// Key parts (docs/TUNING.md). The stencil fingerprint covers shape
  /// identity (tap offsets + coefficients), dims, radius, and parvec;
  /// the extents-class quantizes grid extents so one search
  /// serves similar grids.
  [[nodiscard]] static std::string stencil_fingerprint(
      const TapSet& taps, const AcceleratorConfig& base);
  [[nodiscard]] static std::string extents_class(int dims, std::int64_t nx,
                                                 std::int64_t ny,
                                                 std::int64_t nz);

  /// Shared default instance (cache_path "auto") for the free run() path;
  /// constructed on first use, process lifetime.
  static HostAutotuner& process_default();

 private:
  HostAutotunerOptions options_;
  TuningCache cache_;
};

}  // namespace fpga_stencil
