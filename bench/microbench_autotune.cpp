// Block-size sensitivity of the host stream_block path: paper-default
// geometry vs the cache-model-seeded candidate vs the empirically
// searched plan, per envelope point (star/box x 2D/3D x radius 1-4),
// single-thread.
//
// Every point is also an exactness check -- the tuned and model-seeded
// geometries must reproduce the paper-default result bit-for-bit (the
// whole premise of tuning is that block geometry is performance-only) --
// and the benchmark exits nonzero on any mismatch.
//
// The searched plan is measured twice: once by the tuner's own short
// probes (what plan selection sees) and once with a real run on the
// target grid (what the user gets). The exported gains come from the
// real runs; when the search returns the paper-default geometry the
// default measurement is reused so the gain is exactly 1.0, which is
// what "the default was already optimal" should report.
//
// With --json FILE the scorecard is exported in the BENCH_PR9.json
// convention ("bench": "autotune"); tools/check_bench_json.py validates
// the shape and gates (median gain >= 1.0; acceptance gain >= 1.15 in
// --full mode) as a ctest fixture. Default sizes are CI-small; the
// committed artifact comes from:
//   microbench_autotune --full --json BENCH_PR9.json
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/plan_candidates.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"
#include "tune/host_autotuner.hpp"

using namespace fpga_stencil;

namespace {

struct Options {
  std::string json_path;
  bool full = false;            // acceptance sizes instead of CI-small
  std::int64_t n2d = 512;       // envelope 2D grid: n2d x (n2d / 2)
  std::int64_t n3d = 64;        // envelope 3D grid: n3d^3
  std::int64_t accept_n = 96;   // acceptance grid: accept_n^3
  std::int64_t probe_cells = 64 * 1024;
  int probe_repeats = 1;
};

struct PointResult {
  std::string name;
  std::string shape;  ///< "star" or "box"
  int dims = 2, radius = 1, parvec = 1;
  std::int64_t nx = 0, ny = 0, nz = 1;
  int iters = 0;
  std::string default_config, model_config, tuned_config;
  double default_mcells = 0.0;  ///< paper-default geometry, real run
  double model_mcells = 0.0;    ///< lowest-model-cost candidate, real run
  double tuned_mcells = 0.0;    ///< searched winner, real run
  double probe_tuned_mcells = 0.0;     ///< what the search measured
  double probe_baseline_mcells = 0.0;  ///< ... for the default
  std::int64_t candidates_probed = 0;
  std::int64_t search_ns = 0;
  bool exact = true;
  [[nodiscard]] double gain() const {
    return default_mcells > 0.0 ? tuned_mcells / default_mcells : 0.0;
  }
  [[nodiscard]] double model_gain() const {
    return default_mcells > 0.0 ? model_mcells / default_mcells : 0.0;
  }
};

TapSet envelope_taps(const std::string& shape, int dims, int radius) {
  if (shape == "star") {
    return StarStencil::make_benchmark(dims, radius, 99).to_taps();
  }
  return make_box_stencil(dims, radius, 99);
}

/// The "paper default" geometry: the knobs stencilctl and the PR 5/7
/// benches run with when the user does not choose (2D 4096-wide blocks,
/// 3D 256x128, four chained PEs).
AcceleratorConfig paper_default_config(int dims, int radius, int parvec) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = parvec;
  cfg.partime = 4;
  cfg.bsize_x = dims == 2 ? 4096 : 256;
  cfg.bsize_y = dims == 3 ? 128 : 1;
  return cfg;
}

/// The PR 7 acceptance workload (3D star r4, parvec 16, partime 4,
/// bsize 144x144) -- the geometry the tuned plan must beat by >= 1.15x
/// at 512^3 for the committed artifact.
AcceleratorConfig acceptance_config() {
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 4;
  cfg.parvec = 16;
  cfg.partime = 4;
  cfg.bsize_x = 144;
  cfg.bsize_y = 144;
  return cfg;
}

double mcells_per_s(std::int64_t cells, int iters, double seconds) {
  return seconds > 0.0 ? double(cells) * iters / seconds / 1e6 : 0.0;
}

template <typename GridT>
double time_run(const TapSet& taps, const AcceleratorConfig& cfg, GridT& grid,
                int iters) {
  StencilAccelerator accel(taps, cfg);
  const Stopwatch clock;
  (void)accel.run(grid, iters);
  return double(clock.nanoseconds()) / 1e9;
}

std::string geometry(const AcceleratorConfig& cfg) {
  std::ostringstream os;
  os << "b" << cfg.bsize_x;
  if (cfg.dims == 3) os << "x" << cfg.bsize_y;
  os << ",t" << cfg.partime;
  return os.str();
}

bool same_geometry(const AcceleratorConfig& a, const AcceleratorConfig& b) {
  return a.bsize_x == b.bsize_x && a.bsize_y == b.bsize_y &&
         a.partime == b.partime;
}

template <typename GridT>
PointResult measure_point(HostAutotuner& tuner, const std::string& shape,
                          int radius, const GridT& init, GridT& work) {
  constexpr int dims = std::is_same_v<GridT, Grid3D<float>> ? 3 : 2;
  const int parvec = 4;
  const TapSet taps = envelope_taps(shape, dims, radius);
  const AcceleratorConfig base = paper_default_config(dims, radius, parvec);

  PointResult r;
  r.shape = shape;
  r.dims = dims;
  r.radius = radius;
  r.parvec = parvec;
  r.nx = init.nx();
  r.ny = init.ny();
  if constexpr (dims == 3) r.nz = init.nz();
  r.iters = base.partime;
  r.name = shape + "_" + std::to_string(dims) + "d_r" + std::to_string(radius);
  const std::int64_t cells = r.nx * r.ny * r.nz;

  // Search first (its probes never touch `work`), then measure for real.
  const AutotuneOutcome found = tuner.search(taps, base, r.nx, r.ny, r.nz);
  r.probe_tuned_mcells = found.tuned_mcells;
  r.probe_baseline_mcells = found.baseline_mcells;
  r.candidates_probed = found.candidates_probed;
  r.search_ns = found.search_ns;

  // The cache-model-seeded plan: the lowest-cost non-default candidate
  // (what a model-only tuner would pick without measuring anything).
  const std::vector<AcceleratorConfig> candidates =
      enumerate_plan_candidates(base, r.nx, r.ny, r.nz);
  const AcceleratorConfig model_cfg =
      candidates.size() > 1 ? candidates[1] : base;

  r.default_config = geometry(base);
  r.model_config = geometry(model_cfg);
  r.tuned_config = geometry(found.config);

  work = init;
  r.default_mcells =
      mcells_per_s(cells, r.iters, time_run(taps, base, work, r.iters));
  const GridT reference = std::move(work);
  work = GridT();

  const auto measure_vs_reference = [&](const AcceleratorConfig& cfg,
                                        double& out_mcells) {
    if (same_geometry(cfg, base)) {
      out_mcells = r.default_mcells;  // same plan: same bits, same speed
      return;
    }
    GridT alt = init;
    out_mcells =
        mcells_per_s(cells, r.iters, time_run(taps, cfg, alt, r.iters));
    r.exact = r.exact && compare_exact(alt, reference).identical();
  };
  measure_vs_reference(model_cfg, r.model_mcells);
  measure_vs_reference(found.config, r.tuned_mcells);
  return r;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--json") {
      const char* v = next();
      if (!v) return false;
      opt.json_path = v;
    } else if (a == "--full") {
      opt.full = true;
      opt.n2d = 4096;
      opt.n3d = 160;
      opt.accept_n = 512;
      opt.probe_cells = 512 * 1024;
      opt.probe_repeats = 2;
    } else if (a == "--n2d") {
      const char* v = next();
      if (!v) return false;
      opt.n2d = std::atoll(v);
    } else if (a == "--n3d") {
      const char* v = next();
      if (!v) return false;
      opt.n3d = std::atoll(v);
    } else if (a == "--accept-n") {
      const char* v = next();
      if (!v) return false;
      opt.accept_n = std::atoll(v);
    } else if (a == "--probe-cells") {
      const char* v = next();
      if (!v) return false;
      opt.probe_cells = std::atoll(v);
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: microbench_autotune [--json FILE] [--full]\n"
              << "         [--n2d N] [--n3d N] [--accept-n N] "
                 "[--probe-cells C]\n";
    return 2;
  }

  HostAutotunerOptions topts;
  topts.cache_path = "";  // in-memory: every run searches from scratch
  topts.probe_cells = opt.probe_cells;
  topts.probe_repeats = opt.probe_repeats;
  HostAutotuner tuner(topts);

  bool ok = true;

  Grid2D<float> init2(opt.n2d, opt.n2d / 2);
  init2.fill_random(31, -1.0f, 1.0f);
  Grid2D<float> work2;
  Grid3D<float> init3(opt.n3d, opt.n3d, opt.n3d);
  init3.fill_random(32, -1.0f, 1.0f);
  Grid3D<float> work3;

  std::vector<PointResult> envelope;
  std::cout << "point          default(" << "geom)      model(geom)       "
               "tuned(geom)       gain   exact\n";
  for (const std::string shape : {"star", "box"}) {
    for (int dims : {2, 3}) {
      for (int rad = 1; rad <= 4; ++rad) {
        const PointResult r =
            dims == 2 ? measure_point(tuner, shape, rad, init2, work2)
                      : measure_point(tuner, shape, rad, init3, work3);
        ok = ok && r.exact;
        std::cout << r.name << std::string(
                         15 - std::min<std::size_t>(14, r.name.size()), ' ')
                  << int(r.default_mcells) << " (" << r.default_config
                  << ")  " << int(r.model_mcells) << " (" << r.model_config
                  << ")  " << int(r.tuned_mcells) << " (" << r.tuned_config
                  << ")  x" << r.gain() << "  "
                  << (r.exact ? "yes" : "NO") << "\n";
        envelope.push_back(r);
      }
    }
  }

  // ---- acceptance point: tuned vs the PR 7 acceptance geometry ----
  const AcceleratorConfig acfg = acceptance_config();
  const TapSet ataps = envelope_taps("star", 3, 4);
  Grid3D<float> ainit(opt.accept_n, opt.accept_n, opt.accept_n);
  ainit.fill_random(33, -1.0f, 1.0f);
  const int aiters = acfg.partime;
  const std::int64_t acells = ainit.nx() * ainit.ny() * ainit.nz();

  const AutotuneOutcome afound =
      tuner.search(ataps, acfg, ainit.nx(), ainit.ny(), ainit.nz());
  Grid3D<float> awork = ainit;
  const double a_default = mcells_per_s(
      acells, aiters, time_run(ataps, acfg, awork, aiters));
  const Grid3D<float> areference = std::move(awork);
  double a_tuned = a_default;
  bool a_exact = true;
  if (!same_geometry(afound.config, acfg)) {
    Grid3D<float> alt = ainit;
    a_tuned = mcells_per_s(acells, aiters,
                           time_run(ataps, afound.config, alt, aiters));
    a_exact = compare_exact(alt, areference).identical();
  }
  ok = ok && a_exact;
  const double a_gain = a_default > 0.0 ? a_tuned / a_default : 0.0;
  std::cout << "\nacceptance " << acfg.describe() << " grid " << opt.accept_n
            << "^3: default " << a_default << " Mcell/s, tuned " << a_tuned
            << " Mcell/s (" << geometry(afound.config) << "), gain x"
            << a_gain << ", exact " << (a_exact ? "yes" : "NO") << "\n";

  std::vector<double> gains;
  for (const PointResult& r : envelope) gains.push_back(r.gain());
  std::sort(gains.begin(), gains.end());
  const double min_gain = gains.empty() ? 0.0 : gains.front();
  const double max_gain = gains.empty() ? 0.0 : gains.back();
  const double med_gain = gains.empty() ? 0.0 : gains[gains.size() / 2];
  std::cout << "envelope gains: min x" << min_gain << ", median x" << med_gain
            << ", max x" << max_gain << "\n";

  if (!opt.json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("autotune");
    bench::write_host_block(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("mode").value(opt.full ? "full" : "reduced");
    w.key("probe_cells").value(opt.probe_cells);
    w.key("envelope").begin_array();
    for (const PointResult& r : envelope) {
      w.begin_object();
      w.key("name").value(r.name);
      w.key("shape").value(r.shape);
      w.key("dims").value(r.dims);
      w.key("radius").value(r.radius);
      w.key("parvec").value(r.parvec);
      w.key("nx").value(r.nx);
      w.key("ny").value(r.ny);
      w.key("nz").value(r.nz);
      w.key("iters").value(r.iters);
      w.key("default_config").value(r.default_config);
      w.key("model_config").value(r.model_config);
      w.key("tuned_config").value(r.tuned_config);
      w.key("default_mcells_per_s").value(r.default_mcells);
      w.key("model_mcells_per_s").value(r.model_mcells);
      w.key("tuned_mcells_per_s").value(r.tuned_mcells);
      w.key("probe_tuned_mcells_per_s").value(r.probe_tuned_mcells);
      w.key("probe_baseline_mcells_per_s").value(r.probe_baseline_mcells);
      w.key("gain").value(r.gain());
      w.key("model_gain").value(r.model_gain());
      w.key("candidates_probed").value(r.candidates_probed);
      w.key("search_ns").value(r.search_ns);
      w.key("exact").value(r.exact);
      w.end_object();
    }
    w.end_array();
    w.key("acceptance").begin_object();
    w.key("config").value(acfg.describe());
    w.key("tuned_config").value(geometry(afound.config));
    w.key("nx").value(ainit.nx());
    w.key("ny").value(ainit.ny());
    w.key("nz").value(ainit.nz());
    w.key("iters").value(aiters);
    w.key("default_mcells_per_s").value(a_default);
    w.key("tuned_mcells_per_s").value(a_tuned);
    w.key("gain").value(a_gain);
    w.key("candidates_probed").value(afound.candidates_probed);
    w.key("search_ns").value(afound.search_ns);
    w.key("exact").value(a_exact);
    w.end_object();
    w.key("summary").begin_object();
    w.key("points").value(std::int64_t(envelope.size()));
    w.key("exact_points")
        .value(std::int64_t(std::count_if(
            envelope.begin(), envelope.end(),
            [](const PointResult& r) { return r.exact; })));
    w.key("min_gain").value(min_gain);
    w.key("median_gain").value(med_gain);
    w.key("max_gain").value(max_gain);
    w.end_object();
    w.end_object();

    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << "\n";
      return 1;
    }
    out << body.str() << "\n";
    std::cout << "wrote " << opt.json_path << "\n";
  }

  if (!ok) {
    std::cerr << "SELF-CHECK FAILED: a tuned or model-seeded geometry "
                 "diverged from the paper-default result\n";
    return 1;
  }
  return 0;
}
