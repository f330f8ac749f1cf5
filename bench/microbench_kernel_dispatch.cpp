// Single-thread throughput of the array kernel vs the scalar
// interpreter over a grid of star/box x 2D/3D x radius 1-4 x parvec
// {1,4,8,16} points, plus the acceptance workload (3D star, radius 4,
// partime 4) and a block-parallel scaling rerun on top of the kernel.
//
// Every measured pair is also an exactness check: the kernel run must
// match the interpreter bit-for-bit (and the block-parallel runs must
// match the sync run), and the dispatch counters must show every block
// on the kernel, so the benchmark doubles as a self-test and exits
// nonzero on any mismatch or missing dispatch.
//
// With --json FILE the scorecard is exported in the BENCH_PR7.json
// convention ("bench": "kernel_dispatch"); tools/check_bench_json.py
// validates the shape as a ctest fixture. Default sizes are CI-small;
// --full selects the acceptance sizes (512^3) used for the committed
// artifact:
//   microbench_kernel_dispatch --full --json BENCH_PR7.json
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

using namespace fpga_stencil;

namespace {

struct Options {
  std::string json_path;
  bool full = false;           // acceptance sizes instead of CI-small
  std::int64_t n2d = 64;       // envelope 2D grid: n2d x (n2d * 5 / 8)
  std::int64_t n3d = 28;       // envelope 3D grid: n3d x (n3d-4) x (n3d/2)
  std::int64_t accept_n = 64;  // acceptance grid: accept_n^3
  int iters = 2;               // envelope iterations (partime 2)
  std::vector<int> workers = {1, 2, 4};
};

struct PointResult {
  std::string name;
  std::string shape;  ///< "star" or "box"
  int dims = 2, radius = 1, parvec = 1;
  std::int64_t nx = 0, ny = 0, nz = 1;
  int iters = 0;
  double generic_mcells = 0.0;
  double specialized_mcells = 0.0;
  bool exact = false;
  bool dispatched = false;
  [[nodiscard]] double speedup() const {
    return generic_mcells > 0.0 ? specialized_mcells / generic_mcells : 0.0;
  }
};

TapSet envelope_taps(const std::string& shape, int dims, int radius) {
  if (shape == "star") {
    return StarStencil::make_benchmark(dims, radius, 99).to_taps();
  }
  return make_box_stencil(dims, radius, 99);
}

AcceleratorConfig envelope_config(int dims, int radius, int parvec,
                                  int partime = 2) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = parvec;
  cfg.partime = partime;
  cfg.bsize_x = 32;
  cfg.bsize_y = dims == 3 ? 2 * partime * radius + 5 : 1;
  return cfg;
}

/// The PR 7 acceptance workload: 3D star, radius 4, partime 4, parvec 16
/// (paper-sized knobs; bsize 144 is the smallest multiple of 16 that
/// leaves a healthy csize at halo 16).
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

/// Times one run; with `dispatched` non-null the run is telemetry-audited
/// and `*dispatched` says whether every block ran on the array kernel.
template <typename GridT>
double time_run(const TapSet& taps, AcceleratorConfig cfg, GridT& grid,
                int iters, bool specialized, bool* dispatched = nullptr) {
  cfg.use_specialized_kernels = specialized;
  Telemetry tel;
  if (dispatched) cfg.telemetry = &tel;
  StencilAccelerator accel(taps, cfg);
  const Stopwatch clock;
  (void)accel.run(grid, iters);
  const double seconds = double(clock.nanoseconds()) / 1e9;
  if (dispatched) {
    *dispatched =
        tel.metrics().counter("kernels.dispatch_specialized").value() > 0 &&
        tel.metrics().counter("kernels.dispatch_fallback").value() == 0;
  }
  return seconds;
}

double mcells_per_s(std::int64_t cells, int iters, double seconds) {
  return seconds > 0.0 ? double(cells) * iters / seconds / 1e6 : 0.0;
}

template <typename GridT>
PointResult measure_point(const std::string& shape, int radius, int parvec,
                          GridT& work, const GridT& init, int iters) {
  constexpr int dims = std::is_same_v<GridT, Grid3D<float>> ? 3 : 2;
  const TapSet taps = envelope_taps(shape, dims, radius);
  const AcceleratorConfig cfg = envelope_config(dims, radius, parvec);

  PointResult r;
  r.shape = shape;
  r.dims = dims;
  r.radius = radius;
  r.parvec = parvec;
  r.nx = init.nx();
  r.ny = init.ny();
  if constexpr (dims == 3) r.nz = init.nz();
  r.iters = iters;
  r.name = shape + "_" + std::to_string(dims) + "d_r" +
           std::to_string(radius) + "_v" + std::to_string(parvec);

  const std::int64_t cells = init.nx() * init.ny() * r.nz;
  work = init;
  const double t_gen = time_run(taps, cfg, work, iters, /*specialized=*/false);
  GridT reference = std::move(work);
  work = init;
  const double t_spec = time_run(taps, cfg, work, iters, /*specialized=*/true,
                                 &r.dispatched);
  r.generic_mcells = mcells_per_s(cells, iters, t_gen);
  r.specialized_mcells = mcells_per_s(cells, iters, t_spec);
  r.exact = compare_exact(work, reference).identical();
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
      opt.n2d = 512;
      opt.n3d = 96;
      opt.accept_n = 512;
      opt.iters = 4;
      opt.workers = {1, 2, 4, 8};
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
    } else if (a == "--iters") {
      const char* v = next();
      if (!v) return false;
      opt.iters = std::atoi(v);
    } else if (a == "--workers") {
      const char* v = next();
      if (!v) return false;
      opt.workers.clear();
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        opt.workers.push_back(std::atoi(tok.c_str()));
      }
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
    std::cerr << "usage: microbench_kernel_dispatch [--json FILE] [--full]\n"
              << "         [--n2d N] [--n3d N] [--accept-n N] [--iters I]\n"
              << "         [--workers 1,2,4]\n";
    return 2;
  }

  bool ok = true;

  // ---- point sweep: interpreter vs array kernel per point ----
  Grid2D<float> init2(opt.n2d, opt.n2d * 5 / 8);
  init2.fill_random(21, -1.0f, 1.0f);
  Grid2D<float> work2(init2.nx(), init2.ny());
  Grid3D<float> init3(opt.n3d, opt.n3d - 4, std::max<std::int64_t>(
                                                opt.n3d / 2, 8));
  init3.fill_random(22, -1.0f, 1.0f);
  Grid3D<float> work3(init3.nx(), init3.ny(), init3.nz());

  std::vector<PointResult> envelope;
  std::cout << "kernel            grid            generic   specialized  "
               "speedup  exact\n";
  for (const std::string shape : {"star", "box"}) {
    for (int dims : {2, 3}) {
      for (int rad = 1; rad <= 4; ++rad) {
        for (int pv : {1, 4, 8, 16}) {
          const PointResult r =
              dims == 2 ? measure_point(shape, rad, pv, work2, init2,
                                        opt.iters)
                        : measure_point(shape, rad, pv, work3, init3,
                                        opt.iters);
          ok = ok && r.exact && r.dispatched;
          std::ostringstream grid;
          grid << r.nx << "x" << r.ny;
          if (r.dims == 3) grid << "x" << r.nz;
          std::cout << r.name << std::string(18 - std::min<std::size_t>(
                                                 17, r.name.size()), ' ')
                    << grid.str() << "\t" << r.generic_mcells << "\t"
                    << r.specialized_mcells << "\tx" << r.speedup() << "\t"
                    << (r.exact ? "yes" : "NO") << "\n";
          envelope.push_back(r);
        }
      }
    }
  }

  // ---- acceptance point: 3D star r4 partime 4, telemetry-audited ----
  const AcceleratorConfig acfg = acceptance_config();
  const TapSet ataps = envelope_taps("star", 3, 4);
  Grid3D<float> ainit(opt.accept_n, opt.accept_n, opt.accept_n);
  ainit.fill_random(23, -1.0f, 1.0f);
  const int aiters = acfg.partime;
  const std::int64_t acells = ainit.nx() * ainit.ny() * ainit.nz();

  Grid3D<float> awork = ainit;
  const double at_gen = time_run(ataps, acfg, awork, aiters, false);
  Grid3D<float> areference = std::move(awork);
  awork = ainit;
  bool accept_dispatched = false;
  const double at_spec =
      time_run(ataps, acfg, awork, aiters, true, &accept_dispatched);
  const bool accept_exact = compare_exact(awork, areference).identical();
  ok = ok && accept_exact && accept_dispatched;
  const double accept_gen_mc = mcells_per_s(acells, aiters, at_gen);
  const double accept_spec_mc = mcells_per_s(acells, aiters, at_spec);
  const double accept_speedup =
      accept_gen_mc > 0.0 ? accept_spec_mc / accept_gen_mc : 0.0;
  std::cout << "\nacceptance " << acfg.describe() << " grid " << opt.accept_n
            << "^3: generic " << accept_gen_mc << " Mcell/s, specialized "
            << accept_spec_mc << " Mcell/s, speedup x" << accept_speedup
            << ", exact " << (accept_exact ? "yes" : "NO") << "\n";

  // ---- block-parallel scaling rerun on the array kernel ----
  struct ScaleRun {
    int workers = 0;
    double mcells = 0.0;
    double speedup_vs_sync = 0.0;
    bool exact = false;
  };
  std::vector<ScaleRun> scale;
  const double sync_mc = accept_spec_mc;  // sync specialized baseline
  const unsigned hc = std::thread::hardware_concurrency();
  int max_workers = 1;
  double best_speedup = 0.0;
  for (int wkr : opt.workers) {
    max_workers = std::max(max_workers, wkr);
    RunOptions ropt;
    ropt.workers = wkr;
    Grid3D<float> pwork = ainit;
    const Stopwatch clock;
    (void)run_block_parallel(ataps, acfg, pwork, aiters, ropt);
    const double secs = double(clock.nanoseconds()) / 1e9;
    ScaleRun s;
    s.workers = wkr;
    s.mcells = mcells_per_s(acells, aiters, secs);
    s.speedup_vs_sync = sync_mc > 0.0 ? s.mcells / sync_mc : 0.0;
    s.exact = compare_exact(pwork, areference).identical();
    best_speedup = std::max(best_speedup, s.speedup_vs_sync);
    ok = ok && s.exact;
    std::cout << "blockpar workers=" << wkr << ": " << s.mcells
              << " Mcell/s, x" << s.speedup_vs_sync << " vs sync, exact "
              << (s.exact ? "yes" : "NO") << "\n";
    scale.push_back(s);
  }
  // As in stencilctl blockpar: the scaling gate only binds on hosts with
  // enough cores; exactness binds everywhere.
  const bool gate_checked = hc >= unsigned(max_workers);

  double min_sp = 1e300, max_sp = 0.0;
  std::vector<double> sps;
  for (const PointResult& r : envelope) {
    min_sp = std::min(min_sp, r.speedup());
    max_sp = std::max(max_sp, r.speedup());
    sps.push_back(r.speedup());
  }
  std::sort(sps.begin(), sps.end());
  const double med_sp = sps.empty() ? 0.0 : sps[sps.size() / 2];
  std::cout << "\nenvelope speedups: min x" << min_sp << ", median x"
            << med_sp << ", max x" << max_sp << "\n";

  if (!opt.json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("kernel_dispatch");
    bench::write_host_block(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("mode").value(opt.full ? "full" : "reduced");
    w.key("hardware_concurrency").value(std::int64_t(hc));
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
      w.key("generic_mcells_per_s").value(r.generic_mcells);
      w.key("specialized_mcells_per_s").value(r.specialized_mcells);
      w.key("speedup").value(r.speedup());
      w.key("exact").value(r.exact);
      w.key("dispatched").value(r.dispatched);
      w.end_object();
    }
    w.end_array();
    w.key("acceptance").begin_object();
    w.key("config").value(acfg.describe());
    w.key("nx").value(ainit.nx());
    w.key("ny").value(ainit.ny());
    w.key("nz").value(ainit.nz());
    w.key("iters").value(aiters);
    w.key("generic_mcells_per_s").value(accept_gen_mc);
    w.key("specialized_mcells_per_s").value(accept_spec_mc);
    w.key("speedup").value(accept_speedup);
    w.key("exact").value(accept_exact);
    w.key("dispatched").value(accept_dispatched);
    w.end_object();
    w.key("blockpar").begin_object();
    w.key("baseline_mcells_per_s").value(sync_mc);
    w.key("speedup_gate_checked").value(gate_checked);
    w.key("best_speedup").value(best_speedup);
    w.key("runs").begin_array();
    for (const ScaleRun& s : scale) {
      w.begin_object();
      w.key("workers").value(s.workers);
      w.key("mcells_per_s").value(s.mcells);
      w.key("speedup_vs_sync").value(s.speedup_vs_sync);
      w.key("exact").value(s.exact);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("summary").begin_object();
    w.key("points").value(std::int64_t(envelope.size()));
    w.key("exact_points")
        .value(std::int64_t(std::count_if(envelope.begin(), envelope.end(),
                                          [](const PointResult& r) {
                                            return r.exact;
                                          })));
    w.key("min_speedup").value(min_sp);
    w.key("median_speedup").value(med_sp);
    w.key("max_speedup").value(max_sp);
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
    std::cerr << "SELF-CHECK FAILED: a kernel run diverged from the "
                 "interpreter or failed to dispatch\n";
    return 1;
  }
  return 0;
}
