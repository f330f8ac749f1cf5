// stencilctl: command-line front end to the library.
//
//   stencilctl devices
//       list the FPGA catalog with Table II characteristics
//   stencilctl explore --dims D --radius R [--device NAME] [--nx N --ny N --nz N] [--top K]
//       Section V.A design-space exploration (model-based, ranked
//       against the FPGA resource/bandwidth budget)
//   stencilctl tune [--dims D] [--radius R] [--full] [--json FILE]
//                   [--cache FILE] [--probe-cells C] [--serve]
//       empirical host autotuning (docs/TUNING.md): sweep the
//       star/box x 2D/3D x radius 1-4 envelope, search block geometry x
//       temporal depth by measured-throughput probes, and print
//       paper-default vs tuned Mcell/s per point; tuned runs are
//       verified bit-exact against the default geometry; --json exports
//       the gain scorecard (BENCH_PR9.json schema); --serve instead
//       drives an autotune=search StencilEngine and self-checks the
//       tuner.* telemetry (one search, every post-warm-up job a
//       tuner.cache_hit)
//   stencilctl model  --dims D --radius R --bsize-x B [--bsize-y B] --parvec V --partime T [--device NAME]
//       resource / fmax / power / performance prediction for one config
//   stencilctl codegen --dims D --radius R --bsize-x B [--bsize-y B] --parvec V --partime T [--box]
//       emit the OpenCL-C kernel source to stdout
//   stencilctl simulate --dims D --radius R --bsize-x B [--bsize-y B] --parvec V --partime T
//                       [--nx N --ny N --nz N] [--iters I] [--box]
//                       [--backend NAME] [--workers W]
//       run the job through the unified run() router (sync / concurrent /
//       block-parallel / resilient) and verify vs the naive reference
//   stencilctl blockpar [--nx N --ny N --nz N] [--radius R] [--parvec V]
//                       [--partime T] [--bsize-x B --bsize-y B] [--iters I]
//                       [--workers LIST] [--generic] [--json FILE]
//       scale one overlapped-blocking job across host worker counts
//       through the block-parallel backend; self-check: every run
//       bit-exact vs the synchronous sweep, and (on hosts with enough
//       cores) the top worker count reaches 3/8 of linear speedup;
//       --json exports the scaling scorecard (BENCH_PR5.json)
//   stencilctl faults [--plan SPEC] [--boards B] [--nx N --ny N] [--iters I]
//       run a seeded fault campaign (default: one of every recoverable
//       fault class) through the shim, the resilient concurrent runtime,
//       and the cluster failover path, and print the resilience counters
//   stencilctl metrics [config flags] [--format table|json|csv] [--out FILE]
//       run the threaded dataflow pipeline with telemetry attached and
//       report the metrics snapshot (channel high-water marks, blocked
//       time, per-pass throughput)
//   stencilctl trace [config flags] [--out trace.json]
//       same instrumented run, exported as Chrome trace_event JSON
//       (open in chrome://tracing or https://ui.perfetto.dev)
//   stencilctl engine [--jobs N] [--workers W] [--iters I] [--json FILE]
//       drive a mixed 2D/3D job campaign through one StencilEngine
//       session (plan cache + buffer pool + backend router) and
//       self-check: every job bit-exact vs the naive reference, at least
//       one plan-cache hit, no failed jobs; --json exports the per-job
//       latency scorecard (BENCH_PR3.json)
//   stencilctl serve [--jobs N] [--shards S] [--workers W] [--seed S]
//                    [--iters I] [--window W] [--json FILE]
//       the serving-tier campaign (docs/SERVING.md): N mixed jobs
//       (star/box x 2D/3D x radius 1-4) from a skewed five-tenant mix
//       (QoS classes, a rate-capped tenant, a blocking inflight-capped
//       tenant, a fault-seeded tenant) through an EngineCluster of S
//       shards; one shard is drained and reloaded mid-campaign.
//       Self-checks: exact accounting (every submission rejected or
//       terminal), zero failed/hung jobs, every survivor bit-exact,
//       chunked deliveries reassemble exactly, >= 1 quota rejection,
//       per-shard plan-cache hit rate > 0.9, shard balance bounded,
//       zero leaked pool leases, and the faulty tenant never degrades
//       clean tenants' p99 (vs a clean calibration phase); the scale
//       probe's 3/8-linear speedup gate is only checked when the host
//       has enough cores (recorded as speedup_gate_checked, like
//       blockpar); --json exports the per-class/per-tenant latency
//       scorecard (BENCH_PR8.json)
//   stencilctl chaos [--jobs N] [--workers W] [--seed S] [--json FILE]
//       the robustness campaign (docs/LIFECYCLE.md): first a
//       deterministic circuit-breaker proof (fault-injected concurrent
//       jobs trip the breaker open, jobs reroute to the sync fallback,
//       a post-cooldown probe closes it again), then N mixed jobs with
//       seeded random cancellations and deadlines; self-check: zero
//       hangs, zero unexpected failures, zero leaked pool buffers,
//       every surviving job bit-exact; --json exports cancel-latency
//       percentiles and breaker counters (BENCH_PR6.json)
//   stencilctl program [--n2d N] [--n3d N] [--steps S] [--steps3d S]
//                      [--shards S] [--workers W] [--json FILE]
//       the multi-field program campaigns (docs/PROGRAMS.md): a 2D FDTD
//       E/H update (dirichlet walls) and a 3D damped wave equation
//       (reflective walls, work-field leapfrog), each a ProgramSpec DAG
//       submitted through EngineCluster::submit. Self-checks: every
//       field bit-exact vs the multi-field golden model, chunked
//       per-field delivery reassembles exactly, repeated submissions
//       route to one shard and hit the per-node plan cache, zero leaked
//       pool leases; --json exports the campaign scorecard
//       (BENCH_PR10.json)
//
// Exit status: 0 on success, 1 on verification/model failure, 2 on usage.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/multi_fpga.hpp"
#include "codegen/kernel_generator.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/concurrent_accelerator.hpp"
#include "core/host_profile.hpp"
#include "core/plan_candidates.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/engine_cluster.hpp"
#include "engine/run.hpp"
#include "engine/stencil_engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/resilient_runner.hpp"
#include "telemetry/telemetry.hpp"
#include "fpga/fmax_model.hpp"
#include "fpga/power_model.hpp"
#include "grid/grid_compare.hpp"
#include "model/performance_model.hpp"
#include "ocl/opencl_shim.hpp"
#include "program/program_reference.hpp"
#include "program/program_spec.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "tune/host_autotuner.hpp"
#include "tune/tuner.hpp"

using namespace fpga_stencil;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool box = false;
  bool generic = false;  // force the interpreter (no specialized kernels)
  bool full = false;     // tune: acceptance sizes instead of CI-small
  bool serve = false;    // tune: engine telemetry self-check mode

  [[nodiscard]] std::int64_t get(const std::string& key,
                                 std::int64_t fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stoll(it->second);
  }
  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return kv.count(key) != 0;
  }
};

Args parse_args(int argc, char** argv, int start) {
  Args a;
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw ConfigError("expected --flag, got `" + key + "`");
    }
    key = key.substr(2);
    if (key == "box") {
      a.box = true;
      continue;
    }
    if (key == "generic") {
      a.generic = true;
      continue;
    }
    if (key == "full") {
      a.full = true;
      continue;
    }
    if (key == "serve") {
      a.serve = true;
      continue;
    }
    if (i + 1 >= argc) throw ConfigError("missing value for --" + key);
    a.kv[key] = argv[++i];
  }
  return a;
}

DeviceSpec device_from(const Args& a) {
  const std::string name = a.get_str("device", "Arria 10");
  for (const DeviceSpec& d :
       {arria10_gx1150(), stratix_v_gxa7(), stratix10_gx2800(),
        stratix10_mx2100()}) {
    if (d.name.find(name) != std::string::npos) return d;
  }
  throw ConfigError("unknown device `" + name + "`");
}

AcceleratorConfig config_from(const Args& a) {
  AcceleratorConfig cfg;
  cfg.dims = static_cast<int>(a.get("dims", 2));
  cfg.radius = static_cast<int>(a.get("radius", 1));
  cfg.bsize_x = a.get("bsize-x", cfg.dims == 2 ? 4096 : 256);
  cfg.bsize_y = cfg.dims == 3 ? a.get("bsize-y", 128) : 1;
  cfg.parvec = static_cast<int>(a.get("parvec", 4));
  cfg.partime = static_cast<int>(a.get("partime", 4));
  cfg.validate();
  return cfg;
}

int cmd_devices() {
  TextTable t({"Device", "GFLOP/s", "GB/s", "FLOP/Byte", "DSPs", "M20Ks",
               "TDP W"});
  for (const DeviceSpec& d :
       {arria10_gx1150(), stratix_v_gxa7(), stratix10_gx2800(),
        stratix10_mx2100()}) {
    t.add_row({d.name, format_fixed(d.peak_gflops, 0),
               format_fixed(d.peak_bw_gbps, 1),
               format_fixed(d.flop_per_byte(), 1), std::to_string(d.dsps),
               std::to_string(d.m20k_blocks), format_fixed(d.tdp_watts, 0)});
  }
  t.render(std::cout);
  return 0;
}

int cmd_explore(const Args& a) {
  TunerOptions o;
  o.dims = static_cast<int>(a.get("dims", 2));
  o.radius = static_cast<int>(a.get("radius", 1));
  o.nx = a.get("nx", o.dims == 2 ? 16096 : 696);
  o.ny = a.get("ny", o.dims == 2 ? 16096 : 728);
  o.nz = o.dims == 3 ? a.get("nz", 696) : 1;
  const DeviceSpec dev = device_from(a);
  const auto configs = enumerate_configs(dev, o);
  const std::size_t top = std::size_t(a.get("top", 5));
  std::cout << configs.size() << " feasible configurations on " << dev.name
            << "; top " << std::min(top, configs.size()) << ":\n";
  TextTable t({"rank", "config", "aligned", "pred GB/s", "GFLOP/s", "fmax",
               "DSP", "BRAM blk"});
  for (std::size_t i = 0; i < configs.size() && i < top; ++i) {
    const TunedConfig& c = configs[i];
    t.add_row({std::to_string(i + 1), c.config.describe(),
               c.meets_alignment ? "yes" : "no",
               format_fixed(c.perf.measured_gbps, 1),
               format_fixed(c.perf.measured_gflops, 1),
               format_fixed(c.fmax_mhz, 1),
               format_percent(c.usage.dsp_fraction),
               format_percent(c.usage.bram_block_fraction)});
  }
  t.render(std::cout);
  return configs.empty() ? 1 : 0;
}

int cmd_model(const Args& a) {
  const AcceleratorConfig cfg = config_from(a);
  const DeviceSpec dev = device_from(a);
  const ResourceUsage u = estimate_resources(cfg, dev);
  const double fmax = estimate_fmax_mhz(cfg, dev);
  const std::int64_t nx = a.get("nx", cfg.dims == 2 ? 16096 : 696);
  const std::int64_t ny = a.get("ny", cfg.dims == 2 ? 16096 : 728);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 696) : 1;
  const PerformanceEstimate e =
      estimate_performance(cfg, dev, fmax, nx, ny, nz);

  std::cout << "configuration: " << cfg.describe() << " on " << dev.name
            << "\n"
            << "fits: " << (u.fits() ? "yes" : "NO") << "\n"
            << "  DSP          " << u.dsps << " ("
            << format_percent(u.dsp_fraction) << ")\n"
            << "  BRAM bits    " << format_percent(u.bram_bits_fraction)
            << ", blocks " << format_percent(u.bram_block_fraction) << "\n"
            << "  logic        " << format_percent(u.logic_fraction) << "\n"
            << "fmax:  " << format_fixed(fmax, 1) << " MHz\n"
            << "power: "
            << format_fixed(estimate_power_watts(cfg, dev, fmax), 1)
            << " W\n"
            << "performance on " << nx << "x" << ny
            << (cfg.dims == 3 ? "x" + std::to_string(nz) : "") << ":\n"
            << "  estimated  " << format_fixed(e.estimated_gbps, 1)
            << " GB/s\n"
            << "  pipeline efficiency "
            << format_percent(e.pipeline_efficiency) << "\n"
            << "  predicted  " << format_fixed(e.measured_gbps, 1)
            << " GB/s = " << format_fixed(e.measured_gflops, 1)
            << " GFLOP/s = " << format_fixed(e.measured_gcells, 2)
            << " GCell/s\n"
            << "  roofline ratio " << format_fixed(e.roofline_ratio, 2)
            << "x of " << format_fixed(dev.peak_bw_gbps, 1) << " GB/s peak\n";
  return u.fits() ? 0 : 1;
}

int cmd_codegen(const Args& a) {
  const AcceleratorConfig cfg = config_from(a);
  if (a.box) {
    const TapSet box = make_box_stencil(cfg.dims, cfg.radius);
    std::cout << generate_tap_kernel_source(box, {cfg, true});
  } else {
    std::cout << generate_kernel_source({cfg, true});
  }
  return 0;
}

/// --backend flag -> ExecutionBackend; `automatic` defers to the router.
ExecutionBackend backend_from(const Args& a) {
  const std::string name = a.get_str("backend", "automatic");
  for (const ExecutionBackend b :
       {ExecutionBackend::automatic, ExecutionBackend::sync_sim,
        ExecutionBackend::concurrent, ExecutionBackend::block_parallel,
        ExecutionBackend::resilient, ExecutionBackend::cluster}) {
    if (name == backend_name(b)) return b;
  }
  throw ConfigError("unknown --backend `" + name + "`");
}

int cmd_simulate(const Args& a) {
  const AcceleratorConfig cfg = config_from(a);
  const std::int64_t nx = a.get("nx", 200);
  const std::int64_t ny = a.get("ny", cfg.dims == 2 ? 100 : 60);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 30) : 1;
  const int iters = static_cast<int>(a.get("iters", cfg.partime + 1));
  const TapSet taps =
      a.box ? make_box_stencil(cfg.dims, cfg.radius)
            : StarStencil::make_benchmark(cfg.dims, cfg.radius).to_taps();

  RunOptions opts;
  opts.backend = backend_from(a);
  opts.workers = static_cast<int>(a.get("workers", 0));
  const ExecutionBackend resolved =
      resolve_backend(taps, cfg, nx, ny, nz, opts);

  Stopwatch sw;
  CompareResult cmp;
  RunStats stats;
  if (cfg.dims == 2) {
    Grid2D<float> g(nx, ny);
    g.fill_random(1);
    Grid2D<float> want = g;
    stats = run(taps, cfg, g, iters, opts);
    reference_run(taps, want, iters);
    cmp = compare_exact(g, want);
  } else {
    Grid3D<float> g(nx, ny, nz);
    g.fill_random(1);
    Grid3D<float> want = g;
    stats = run(taps, cfg, g, iters, opts);
    reference_run(taps, want, iters);
    cmp = compare_exact(g, want);
  }

  std::cout << "simulated " << cfg.describe() << " on " << nx << "x" << ny
            << (cfg.dims == 3 ? "x" + std::to_string(nz) : "") << " for "
            << iters << " iterations via " << backend_name(resolved)
            << " backend (" << format_fixed(sw.seconds(), 2)
            << " s host time)\n"
            << "  passes " << stats.passes << ", cells streamed "
            << stats.cells_streamed << ", redundancy "
            << format_fixed(stats.redundancy(), 3) << "x, pipeline cycles "
            << stats.vectors_processed << "\n"
            << "  cells computed " << stats.cells_computed
            << ", compute redundancy "
            << format_fixed(stats.compute_redundancy(), 4) << "x\n"
            << "  verification vs naive reference: " << cmp.summary()
            << "\n";
  return cmp.identical() ? 0 : 1;
}

/// Shared workload of `metrics` and `trace`: the threaded dataflow
/// pipeline (the only engine where channels and stage overlap exist) with
/// the telemetry hook attached through AcceleratorConfig.
RunStats run_instrumented(const Args& a, Telemetry& telemetry,
                          std::ostream& os) {
  AcceleratorConfig cfg = config_from(a);
  cfg.telemetry = &telemetry;
  const std::int64_t nx = a.get("nx", 200);
  const std::int64_t ny = a.get("ny", cfg.dims == 2 ? 100 : 60);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 30) : 1;
  const int iters = static_cast<int>(a.get("iters", cfg.partime + 1));
  const std::size_t depth = std::size_t(a.get("depth", 64));
  const TapSet taps =
      a.box ? make_box_stencil(cfg.dims, cfg.radius)
            : StarStencil::make_benchmark(cfg.dims, cfg.radius).to_taps();

  RunStats stats;
  RunOptions opts;
  opts.backend = ExecutionBackend::concurrent;
  opts.channel_depth = depth;
  if (cfg.dims == 2) {
    Grid2D<float> g(nx, ny);
    g.fill_random(1);
    stats = run(taps, cfg, g, iters, opts);
  } else {
    Grid3D<float> g(nx, ny, nz);
    g.fill_random(1);
    stats = run(taps, cfg, g, iters, opts);
  }
  os << "instrumented concurrent run: " << cfg.describe() << " on " << nx
     << "x" << ny << (cfg.dims == 3 ? "x" + std::to_string(nz) : "")
     << " for " << iters << " iterations (" << stats.passes << " passes)\n";
  return stats;
}

int cmd_metrics(const Args& a) {
  Telemetry telemetry;
  run_instrumented(a, telemetry, std::cout);
  const MetricsSnapshot snap = telemetry.metrics().snapshot();

  const std::string format = a.get_str("format", "table");
  const std::string out = a.get_str("out", "");
  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) throw ConfigError("cannot open --out file `" + out + "`");
  }
  std::ostream& os = out.empty() ? std::cout : file;

  if (format == "json") {
    snap.write_json(os);
  } else if (format == "csv") {
    snap.write_csv(os);
  } else if (format == "table") {
    TextTable t({"metric", "kind", "value", "sum"});
    for (const MetricSample& s : snap.samples) {
      t.add_row({s.name, std::string(metric_kind_name(s.kind)),
                 std::to_string(s.value),
                 s.kind == MetricKind::histogram ? std::to_string(s.sum)
                                                 : ""});
    }
    t.render(os);
  } else {
    throw ConfigError("unknown --format `" + format +
                      "` (want table|json|csv)");
  }
  if (!out.empty()) {
    std::cout << snap.samples.size() << " metrics written to " << out
              << "\n";
  }
  // A healthy pipeline run must have moved data through the channels.
  return snap.value_or("channel.0.high_water", 0) > 0 &&
                 snap.value_or("pipeline.cells_written", 0) > 0
             ? 0
             : 1;
}

int cmd_trace(const Args& a) {
  Telemetry telemetry;
  run_instrumented(a, telemetry, std::cout);
  const AcceleratorConfig cfg = config_from(a);

  std::ostringstream json;
  telemetry.tracer().write_chrome_trace(json);
  if (!json_is_valid(json.str())) {
    std::cerr << "stencilctl: internal error: trace JSON failed "
                 "validation\n";
    return 1;
  }

  const std::string out = a.get_str("out", "trace.json");
  std::ofstream file(out);
  if (!file) throw ConfigError("cannot open --out file `" + out + "`");
  file << json.str();

  // Self-check: the trace must cover every pipeline stage.
  const std::vector<std::string> names = telemetry.tracer().event_names();
  const auto covered = [&](const std::string& want) {
    return std::find(names.begin(), names.end(), want) != names.end();
  };
  bool all_stages = covered("read_kernel") && covered("write_kernel");
  for (int k = 0; k < cfg.partime; ++k) {
    all_stages = all_stages && covered("PE" + std::to_string(k));
  }
  std::cout << telemetry.tracer().event_count() << " trace events written"
            << " to " << out << " (open in chrome://tracing or "
            << "https://ui.perfetto.dev)\n"
            << "  stage coverage: "
            << (all_stages ? "read kernel, every PE, write kernel"
                           : "INCOMPLETE")
            << "\n";
  return all_stages ? 0 : 1;
}

// The default demo campaign: at least one budgeted fault at every
// recoverable site, so every resilience mechanism (shim retry, watchdog
// replay, checksum rollback, cluster failover) exercises once and the
// replayed attempts run clean.
constexpr const char* kDefaultFaultPlan =
    "seed=42,shim_build:n=2,shim_transfer:n=1,shim_enqueue:n=1,"
    "channel_stall:n=1,kernel_hang:n=1,seu_bit_flip:n=150,"
    "board_dropout:n=1,link_degrade:n=2";

int cmd_faults(const Args& a) {
  // Plan resolution: --plan beats the environment beats the demo default.
  FaultPlan plan;
  if (a.has("plan")) {
    plan = FaultPlan::parse(a.get_str("plan", ""));
  } else {
    plan = FaultPlan::from_env();
    if (plan.empty()) plan = FaultPlan::parse(kDefaultFaultPlan);
  }

  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = static_cast<int>(a.get("radius", 2));
  cfg.bsize_x = a.get("bsize-x", 48);
  cfg.parvec = static_cast<int>(a.get("parvec", 4));
  cfg.partime = static_cast<int>(a.get("partime", 3));
  cfg.validate();
  const std::int64_t nx = a.get("nx", 96);
  const std::int64_t ny = a.get("ny", 48);
  const int iters = static_cast<int>(a.get("iters", 4 * cfg.partime));
  const int boards = static_cast<int>(a.get("boards", 4));
  const DeviceSpec dev = device_from(a);

  const StarStencil star = StarStencil::make_benchmark(2, cfg.radius);
  const TapSet taps = star.to_taps();
  Grid2D<float> initial(nx, ny);
  initial.fill_random(7);
  Grid2D<float> want = initial;
  reference_run(taps, want, iters);

  FaultInjector injector(plan);
  ScopedFaultInjector scope(injector);
  std::cout << "fault campaign: " << plan.describe() << "\n"
            << "workload: " << cfg.describe() << ", " << nx << "x" << ny
            << ", " << iters << " iterations, " << boards << " boards on "
            << dev.name << "\n\n";
  bool all_exact = true;

  // Stage 1: the OpenCL host flow under retry (shim_* fault sites).
  std::int64_t build_retries = 0;
  std::int64_t transfer_retries = 0;
  {
    const ocl::Platform platform = ocl::Platform::intel_fpga_sdk();
    const ocl::Context ctx(platform.device_by_name(dev.name));
    const std::string opts = "-DDIM=2 -DRAD=" + std::to_string(cfg.radius) +
                             " -DBSIZE_X=" + std::to_string(cfg.bsize_x) +
                             " -DPAR_VEC=" + std::to_string(cfg.parvec) +
                             " -DPAR_TIME=" + std::to_string(cfg.partime);
    RetryPolicy policy;
    policy.base_delay = std::chrono::microseconds(100);
    const ocl::Program program =
        ocl::Program::build_with_retry(ctx, opts, policy, &build_retries);
    const std::size_t bytes = std::size_t(nx) * std::size_t(ny) * 4;
    ocl::Buffer in(ctx, bytes);
    ocl::Buffer out(ctx, bytes);
    ocl::CommandQueue queue(ctx);
    Grid2D<float> got(nx, ny);
    retry_transient(
        policy,
        [&] { queue.enqueue_write_buffer(in, initial.data(), bytes); },
        &transfer_retries);
    retry_transient(
        policy,
        [&] { queue.enqueue_stencil_2d(program, star, in, out, nx, ny, iters); },
        &transfer_retries);
    retry_transient(
        policy, [&] { queue.enqueue_read_buffer(out, got.data(), bytes); },
        &transfer_retries);
    const CompareResult cmp = compare_exact(got, want);
    all_exact = all_exact && cmp.identical();
    std::cout << "[shim]      " << cmp.summary() << " (build retries "
              << build_retries << ", enqueue/transfer retries "
              << transfer_retries << ")\n";
  }

  // Stage 2: the resilient concurrent runtime (hang/stall/SEU sites).
  RunStats rstats;
  {
    ResilienceOptions opts;
    opts.base.watchdog_deadline = std::chrono::milliseconds(250);
    opts.base.injector = &injector;
    opts.max_pass_attempts = 5;
    opts.checkpoint_interval = 2;
    Grid2D<float> got = initial;
    rstats = run_resilient(taps, cfg, got, iters, opts);
    const CompareResult cmp = compare_exact(got, want);
    all_exact = all_exact && cmp.identical();
    std::cout << "[resilient] " << cmp.summary() << " (watchdog trips "
              << rstats.watchdog_trips << ", checksum failures "
              << rstats.checksum_failures << ", pass replays "
              << rstats.pass_replays << ")\n";
  }

  // Stage 3: cluster failover (board_dropout / link_degrade sites).
  ClusterStats cstats;
  {
    MultiFpgaCluster cluster(boards, taps, cfg, dev, LinkSpec{});
    Grid2D<float> got = initial;
    cstats = cluster.run(got, iters);
    const CompareResult cmp = compare_exact(got, want);
    all_exact = all_exact && cmp.identical();
    std::cout << "[cluster]   " << cmp.summary() << " ("
              << cluster.alive_boards() << "/" << boards
              << " boards alive, pass replays " << cstats.pass_replays
              << ", degraded-link passes " << cstats.link_degraded_passes
              << ")\n";
  }

  std::cout << "\nresilience counters\n";
  TextTable t({"counter", "value"});
  t.add_row({"faults injected", std::to_string(injector.total_fires())});
  t.add_row({"shim build retries", std::to_string(build_retries)});
  t.add_row({"shim transfer/enqueue retries", std::to_string(transfer_retries)});
  t.add_row({"watchdog trips", std::to_string(rstats.watchdog_trips)});
  t.add_row({"checksum failures", std::to_string(rstats.checksum_failures)});
  t.add_row({"pass replays (device)", std::to_string(rstats.pass_replays)});
  t.add_row({"checkpoints saved", std::to_string(rstats.checkpoints_saved)});
  t.add_row({"checkpoint restores", std::to_string(rstats.checkpoint_restores)});
  t.add_row({"degraded to reference",
             rstats.degraded_to_reference ? "yes" : "no"});
  t.add_row({"board dropouts", std::to_string(cstats.board_dropouts)});
  t.add_row({"cluster pass replays", std::to_string(cstats.pass_replays)});
  t.add_row({"link-degraded passes", std::to_string(cstats.link_degraded_passes)});
  t.render(std::cout);
  std::cout << "\ninjector report\n" << injector.report();
  const bool fired = plan.empty() || injector.total_fires() > 0;
  std::cout << "\ncampaign " << (all_exact && fired ? "survived" : "FAILED")
            << ": "
            << (all_exact ? "all outputs bit-exact vs naive reference"
                          : "output NOT bit-exact vs naive reference");
  if (!fired) {
    std::cout << " (planned faults never fired -- nothing was exercised)";
  }
  std::cout << "\n";
  return all_exact && fired ? 0 : 1;
}

// The engine demo campaign: a stream of mixed 2D/3D jobs through one
// StencilEngine session. Eight job kinds cycle: star/box 2D and star 3D
// on the synchronous simulator, the same specs again (plan-cache hits),
// one job on the threaded dataflow backend, one fault-injected job routed
// to the resilient runner, and one 3-board cluster job -- all sharing
// three distinct plans, so the steady-state cache hit rate approaches 1.
int cmd_engine(const Args& a) {
  const int jobs = static_cast<int>(a.get("jobs", 64));
  const int iters = static_cast<int>(a.get("iters", 3));
  if (jobs < 1) throw ConfigError("--jobs must be >= 1");

  EngineOptions eopts;
  eopts.workers = static_cast<int>(a.get("workers", 4));
  eopts.queue_capacity = std::size_t(a.get("queue", 128));

  AcceleratorConfig c2;
  c2.dims = 2;
  c2.radius = 1;
  c2.bsize_x = 32;
  c2.parvec = 4;
  c2.partime = 2;
  AcceleratorConfig c3;
  c3.dims = 3;
  c3.radius = 1;
  c3.bsize_x = 16;
  c3.bsize_y = 8;
  c3.parvec = 4;
  c3.partime = 2;
  const TapSet star2 = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const TapSet box2 = make_box_stencil(2, 1, 21);
  const TapSet star3 = StarStencil::make_benchmark(3, 1, 9).to_taps();
  const auto fresh2 = [] {
    Grid2D<float> g(48, 20);
    g.fill_random(3);
    return g;
  };
  const auto fresh3 = [] {
    Grid3D<float> g(20, 14, 10);
    g.fill_random(4);
    return g;
  };
  Grid2D<float> want_star2 = fresh2();
  reference_run(star2, want_star2, iters);
  Grid2D<float> want_box2 = fresh2();
  reference_run(box2, want_box2, iters);
  Grid3D<float> want_star3 = fresh3();
  reference_run(star3, want_star3, iters);

  // One budgeted hang: the first resilient job survives a watchdog trip,
  // later ones run clean (exercises injector pass-through, not chaos).
  FaultInjector injector(FaultPlan::parse("seed=3,kernel_hang:n=1"));

  StencilEngine engine(eopts);
  std::vector<JobHandle> handles;
  std::vector<int> kinds;
  handles.reserve(std::size_t(jobs));
  for (int i = 0; i < jobs; ++i) {
    const int kind = i % 8;
    kinds.push_back(kind);
    JobSpec spec = [&]() -> JobSpec {
      switch (kind) {
        case 1:
        case 7: return {box2, c2, fresh2(), iters};
        case 2:
        case 6: return {star3, c3, fresh3(), iters};
        default: return {star2, c2, fresh2(), iters};
      }
    }();
    if (kind == 3) spec.backend = Backend::concurrent;
    if (kind == 4) spec.injector = &injector;  // routes to resilient
    if (kind == 5) spec.boards = 3;            // routes to cluster
    spec.label = "job-" + std::to_string(i);
    handles.push_back(engine.submit(std::move(spec)));
  }

  int completed = 0;
  int exact = 0;
  struct JobRow {
    std::string label;
    Backend backend;
    int dims;
    std::int64_t nx, ny, nz;
    bool cache_hit;
    bool exact;
    std::int64_t queue_ns, run_ns, cells_written;
  };
  std::vector<JobRow> rows;
  for (int i = 0; i < jobs; ++i) {
    JobResult& r = handles[std::size_t(i)].wait();
    ++completed;
    bool ok = false;
    JobRow row;
    switch (kinds[std::size_t(i)]) {
      case 1:
      case 7: ok = compare_exact(r.grid2d(), want_box2).identical(); break;
      case 2:
      case 6: ok = compare_exact(r.grid3d(), want_star3).identical(); break;
      default: ok = compare_exact(r.grid2d(), want_star2).identical(); break;
    }
    exact += ok ? 1 : 0;
    row.label = r.label;
    row.backend = r.backend;
    row.dims = std::holds_alternative<Grid3D<float>>(r.grid) ? 3 : 2;
    row.nx = std::visit([](const auto& g) { return g.nx(); }, r.grid);
    row.ny = std::visit([](const auto& g) { return g.ny(); }, r.grid);
    row.nz = row.dims == 3 ? r.grid3d().nz() : 1;
    row.cache_hit = r.plan_cache_hit;
    row.exact = ok;
    row.queue_ns = r.queue_ns;
    row.run_ns = r.run_ns;
    row.cells_written = r.stats.cells_written;
    rows.push_back(std::move(row));
  }
  const EngineStats stats = engine.stats();

  std::cout << "engine campaign: " << jobs << " jobs through "
            << eopts.workers << " workers (" << iters
            << " iterations each)\n";
  TextTable t({"counter", "value"});
  t.add_row({"jobs completed", std::to_string(completed)});
  t.add_row({"jobs bit-exact", std::to_string(exact)});
  t.add_row({"jobs failed", std::to_string(stats.jobs_failed)});
  t.add_row({"plan-cache hits", std::to_string(stats.plan_cache_hits)});
  t.add_row({"plan-cache misses", std::to_string(stats.plan_cache_misses)});
  t.add_row({"cache hit rate",
             format_fixed(stats.cache_hit_rate() * 100.0, 1) + "%"});
  t.add_row({"pool allocations", std::to_string(stats.pool_allocations)});
  t.add_row({"pool reuses", std::to_string(stats.pool_reuses)});
  t.add_row({"queue high-water", std::to_string(stats.queue_high_water)});
  t.add_row({"faults injected", std::to_string(injector.total_fires())});
  t.render(std::cout);

  const std::string json_path = a.get_str("json", "");
  if (!json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("engine_demo_campaign");
    write_host_profile(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("engine").begin_object();
    w.key("workers").value(eopts.workers);
    w.key("queue_capacity").value(std::int64_t(eopts.queue_capacity));
    w.key("plan_cache_capacity")
        .value(std::int64_t(eopts.plan_cache_capacity));
    w.end_object();
    w.key("jobs").begin_array();
    for (const JobRow& row : rows) {
      w.begin_object();
      w.key("label").value(row.label);
      w.key("backend").value(backend_name(row.backend));
      w.key("dims").value(row.dims);
      w.key("nx").value(row.nx);
      w.key("ny").value(row.ny);
      w.key("nz").value(row.nz);
      w.key("iters").value(iters);
      w.key("plan_cache_hit").value(row.cache_hit);
      w.key("exact").value(row.exact);
      w.key("queue_ns").value(row.queue_ns);
      w.key("run_ns").value(row.run_ns);
      w.key("cells_written").value(row.cells_written);
      w.end_object();
    }
    w.end_array();
    w.key("summary").begin_object();
    w.key("jobs").value(jobs);
    w.key("completed").value(completed);
    w.key("failed").value(stats.jobs_failed);
    w.key("cache_hit_rate").value(stats.cache_hit_rate());
    w.key("plan_cache_hits").value(stats.plan_cache_hits);
    w.key("plan_cache_misses").value(stats.plan_cache_misses);
    w.key("pool_allocations").value(stats.pool_allocations);
    w.key("pool_reuses").value(stats.pool_reuses);
    w.key("queue_high_water").value(stats.queue_high_water);
    w.end_object();
    w.end_object();
    if (!json_is_valid(body.str())) {
      std::cerr << "stencilctl: internal error: engine JSON failed "
                   "validation\n";
      return 1;
    }
    std::ofstream file(json_path);
    if (!file) throw ConfigError("cannot open --json file `" + json_path + "`");
    file << body.str() << "\n";
    std::cout << rows.size() << " job records written to " << json_path
              << "\n";
  }

  // Self-check: the campaign passes only if the session served every job
  // correctly and actually exercised the plan cache.
  const bool ok = completed == jobs && exact == jobs &&
                  stats.jobs_failed == 0 && stats.plan_cache_hits >= 1;
  std::cout << "campaign " << (ok ? "passed" : "FAILED") << ": " << exact
            << "/" << jobs << " bit-exact, hit rate "
            << format_fixed(stats.cache_hit_rate() * 100.0, 1) << "%\n";
  return ok ? 0 : 1;
}

// The block-parallel scaling campaign: one fixed overlapped-blocking job,
// a timed synchronous baseline (whose output doubles as the exactness
// oracle), then the same job through the block-parallel backend at each
// requested worker count. Self-checks: every run bit-exact with the sync
// sweep; and when the host actually has as many cores as the largest
// worker count, the best speedup must reach 3/8 of linear (3x at 8
// workers, the acceptance bar) -- on smaller hosts the scaling gate is
// recorded as unchecked rather than failed, since host parallelism
// cannot manifest without cores.
int cmd_blockpar(const Args& a) {
  AcceleratorConfig cfg;
  cfg.dims = static_cast<int>(a.get("dims", 3));
  cfg.radius = static_cast<int>(a.get("radius", 2));
  cfg.parvec = static_cast<int>(a.get("parvec", 4));
  cfg.partime = static_cast<int>(a.get("partime", 4));
  cfg.bsize_x = a.get("bsize-x", 136);
  cfg.bsize_y = cfg.dims == 3 ? a.get("bsize-y", 136) : 1;
  cfg.use_specialized_kernels = !a.generic;
  cfg.validate();
  const std::int64_t nx = a.get("nx", 512);
  const std::int64_t ny = a.get("ny", 512);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 512) : 1;
  const int iters = static_cast<int>(a.get("iters", cfg.partime));
  const std::int64_t cells = nx * ny * nz;

  std::vector<int> worker_counts;
  {
    std::stringstream ss(a.get_str("workers", "1,2,4,8"));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const int w = std::stoi(tok);
      if (w < 1) throw ConfigError("--workers entries must be >= 1");
      worker_counts.push_back(w);
    }
    if (worker_counts.empty()) throw ConfigError("--workers list is empty");
  }
  const int max_workers =
      *std::max_element(worker_counts.begin(), worker_counts.end());

  const TapSet taps =
      a.box ? make_box_stencil(cfg.dims, cfg.radius)
            : StarStencil::make_benchmark(cfg.dims, cfg.radius).to_taps();
  const AcceleratorConfig rcfg = resolve_stage_lag(taps, cfg);
  const BlockingPlan plan = cfg.dims == 3
                                ? make_blocking_plan(rcfg, nx, ny, nz)
                                : make_blocking_plan(rcfg, nx, ny);
  const std::int64_t blocks = plan.total_blocks();

  std::cout << "block-parallel campaign: " << cfg.describe() << " on " << nx
            << "x" << ny << (cfg.dims == 3 ? "x" + std::to_string(nz) : "")
            << " for " << iters << " iterations, " << blocks
            << " blocks/pass, workers {";
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    std::cout << (i ? "," : "") << worker_counts[i];
  }
  std::cout << "}, "
            << (cfg.use_specialized_kernels ? "specialized kernels"
                                            : "interpreter (--generic)")
            << "\n";

  struct Row {
    int workers = 0;
    int resolved = 0;
    std::int64_t blocks = 0;
    double wall = 0.0;
    double cells_per_s = 0.0;
    double blocks_per_s = 0.0;
    double speedup = 0.0;
    bool exact = false;
  };
  std::vector<Row> rows;
  double baseline_wall = 0.0;
  double baseline_cells_per_s = 0.0;
  double redundancy = 0.0;
  double compute_redundancy = 0.0;
  bool all_exact = true;

  // One pre-touched scratch grid serves every timed run, so no row pays
  // for allocating and first-touching a full-size grid.
  std::vector<float> scratch(static_cast<std::size_t>(cells));
  const auto campaign = [&](auto initial) {
    auto oracle = initial;
    {
      StencilAccelerator accel(taps, cfg);
      const Stopwatch sw;
      accel.run(oracle, iters, &scratch);
      baseline_wall = sw.seconds();
    }
    baseline_cells_per_s = double(cells) * iters / baseline_wall;
    for (const int w : worker_counts) {
      auto g = initial;
      RunOptions opts;
      opts.workers = w;
      opts.scratch = &scratch;
      const Stopwatch sw;
      const RunStats stats = run_block_parallel(taps, cfg, g, iters, opts);
      Row row;
      row.workers = w;
      row.resolved = resolved_block_workers(opts, plan);
      row.blocks = stats.block_passes;
      row.wall = sw.seconds();
      row.cells_per_s = double(cells) * iters / row.wall;
      row.blocks_per_s = double(stats.block_passes) / row.wall;
      row.speedup = baseline_wall / row.wall;
      row.exact = compare_exact(g, oracle).identical();
      all_exact = all_exact && row.exact;
      redundancy = stats.redundancy();
      compute_redundancy = stats.compute_redundancy();
      rows.push_back(row);
    }
  };
  if (cfg.dims == 2) {
    Grid2D<float> initial(nx, ny);
    initial.fill_random(1);
    campaign(std::move(initial));
  } else {
    Grid3D<float> initial(nx, ny, nz);
    initial.fill_random(1);
    campaign(std::move(initial));
  }

  TextTable t({"workers", "resolved", "blocks", "wall s", "Mcells/s",
               "blocks/s", "speedup", "exact"});
  t.add_row({"sync", "-", std::to_string(blocks * ((iters + cfg.partime - 1) /
                                                   cfg.partime)),
             format_fixed(baseline_wall, 3),
             format_fixed(baseline_cells_per_s / 1e6, 1), "-", "1.00",
             "yes"});
  for (const Row& r : rows) {
    t.add_row({std::to_string(r.workers), std::to_string(r.resolved),
               std::to_string(r.blocks), format_fixed(r.wall, 3),
               format_fixed(r.cells_per_s / 1e6, 1),
               format_fixed(r.blocks_per_s, 1), format_fixed(r.speedup, 2),
               r.exact ? "yes" : "NO"});
  }
  t.render(std::cout);

  double best_speedup = 0.0;
  for (const Row& r : rows) best_speedup = std::max(best_speedup, r.speedup);
  const unsigned hc = std::thread::hardware_concurrency();
  const bool gate_checked = hc >= unsigned(max_workers);
  const bool gate_ok =
      !gate_checked || best_speedup >= 0.375 * double(max_workers);
  std::cout << "redundancy " << format_fixed(redundancy, 3)
            << "x, compute redundancy " << format_fixed(compute_redundancy, 3)
            << "x, best speedup " << format_fixed(best_speedup, 2) << "x ("
            << hc << " hardware threads; scaling gate "
            << (gate_checked ? (gate_ok ? "passed" : "FAILED") : "skipped")
            << ")\n";

  const std::string json_path = a.get_str("json", "");
  if (!json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("block_parallel_scaling");
    write_host_profile(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("workload").begin_object();
    w.key("dims").value(cfg.dims);
    w.key("nx").value(nx);
    w.key("ny").value(ny);
    w.key("nz").value(nz);
    w.key("radius").value(cfg.radius);
    w.key("parvec").value(cfg.parvec);
    w.key("partime").value(cfg.partime);
    w.key("bsize_x").value(cfg.bsize_x);
    w.key("bsize_y").value(cfg.bsize_y);
    w.key("iters").value(iters);
    w.key("blocks").value(blocks);
    w.end_object();
    w.key("baseline").begin_object();
    w.key("backend").value(backend_name(ExecutionBackend::sync_sim));
    w.key("wall_seconds").value(baseline_wall);
    w.key("cells_per_s").value(baseline_cells_per_s);
    w.end_object();
    w.key("runs").begin_array();
    for (const Row& r : rows) {
      w.begin_object();
      w.key("workers").value(r.workers);
      w.key("resolved_workers").value(r.resolved);
      w.key("blocks").value(r.blocks);
      w.key("wall_seconds").value(r.wall);
      w.key("cells_per_s").value(r.cells_per_s);
      w.key("blocks_per_s").value(r.blocks_per_s);
      w.key("speedup_vs_sync").value(r.speedup);
      w.key("exact").value(r.exact);
      w.end_object();
    }
    w.end_array();
    w.key("summary").begin_object();
    w.key("runs").value(std::int64_t(rows.size()));
    w.key("exact_runs").value(std::int64_t(std::count_if(
        rows.begin(), rows.end(), [](const Row& r) { return r.exact; })));
    w.key("max_workers").value(max_workers);
    w.key("best_speedup").value(best_speedup);
    w.key("redundancy").value(redundancy);
    w.key("hardware_concurrency").value(std::int64_t(hc));
    w.key("speedup_gate_checked").value(gate_checked);
    w.end_object();
    w.end_object();
    if (!json_is_valid(body.str())) {
      std::cerr << "stencilctl: internal error: blockpar JSON failed "
                   "validation\n";
      return 1;
    }
    std::ofstream file(json_path);
    if (!file) {
      throw ConfigError("cannot open --json file `" + json_path + "`");
    }
    file << body.str() << "\n";
    std::cout << rows.size() << " run records written to " << json_path
              << "\n";
  }

  std::cout << "campaign "
            << (all_exact && gate_ok ? "passed" : "FAILED") << ": "
            << (all_exact ? "all runs bit-exact vs sync sweep"
                          : "run NOT bit-exact vs sync sweep")
            << "\n";
  return all_exact && gate_ok ? 0 : 1;
}

// The chaos campaign: the end-to-end robustness proof for cooperative
// cancellation, per-job deadlines, the engine lifecycle, and the
// circuit breaker. Two phases through one engine session:
//
//   Phase A (deterministic): `breaker_threshold` consecutive
//   fault-injected failures on the explicit concurrent backend trip its
//   breaker open; a clean concurrent job then visibly reroutes to the
//   sync fallback (and stays bit-exact); after the cooldown a probe job
//   runs on the concurrent backend again and closes the breaker.
//
//   Phase B (seeded random): --jobs mixed jobs -- 2D star/box, 3D star,
//   explicit block-parallel, resilient-with-injector -- with ~15%
//   random deadlines (tight and loose) and ~20% random cancellations,
//   plus one guaranteed mid-run cancel and one guaranteed
//   impossible deadline. Every handle is collected with
//   wait_or_cancel(30 s), so a hang anywhere would fail the campaign
//   rather than wedge it.
//
// Self-checks: every phase-B job reaches a terminal state; zero
// unexpected failures; every *done* job bit-exact vs the naive
// reference; at least one cancellation and one deadline expiry
// observed; the breaker tripped, rerouted, and recovered; and after
// drain() the buffer pool has zero outstanding leases (nothing leaked
// across hundreds of unwinds). --json exports the scorecard
// (BENCH_PR6.json) including cancel-latency p50/p99 from the
// engine.cancel_latency_ns histogram.
int cmd_chaos(const Args& a) {
  const int jobs = static_cast<int>(a.get("jobs", 220));
  const std::uint64_t seed = std::uint64_t(a.get("seed", 42));
  if (jobs < 1) throw ConfigError("--jobs must be >= 1");

  EngineOptions eopts;
  eopts.workers = static_cast<int>(a.get("workers", 4));
  eopts.queue_capacity = std::size_t(jobs) + 16;
  eopts.breaker_threshold = 3;
  eopts.breaker_cooldown = std::chrono::milliseconds(200);

  AcceleratorConfig c2;
  c2.dims = 2;
  c2.radius = 1;
  c2.bsize_x = 32;
  c2.parvec = 4;
  c2.partime = 2;
  AcceleratorConfig c3;
  c3.dims = 3;
  c3.radius = 1;
  c3.bsize_x = 16;
  c3.bsize_y = 8;
  c3.parvec = 4;
  c3.partime = 2;
  const TapSet star2 = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const TapSet box2 = make_box_stencil(2, 1, 21);
  const TapSet star3 = StarStencil::make_benchmark(3, 1, 9).to_taps();
  const auto fresh2 = [] {
    Grid2D<float> g(48, 20);
    g.fill_random(3);
    return g;
  };
  const auto fresh3 = [] {
    Grid3D<float> g(20, 14, 10);
    g.fill_random(4);
    return g;
  };
  const auto fresh_wide = [] {  // enough blocks for the parallel pool
    Grid2D<float> g(128, 96);
    g.fill_random(6);
    return g;
  };
  const auto fresh_slow = [] {  // long enough to be mid-run when hit
    Grid2D<float> g(256, 192);
    g.fill_random(9);
    return g;
  };
  const int iters = 4;
  const int wide_iters = 8;
  // Per-kind expected outputs (every job of a kind starts from the same
  // seeded grid, so one reference run per kind serves the whole fleet).
  Grid2D<float> want_star2 = fresh2();
  reference_run(star2, want_star2, iters);
  Grid2D<float> want_box2 = fresh2();
  reference_run(box2, want_box2, iters);
  Grid3D<float> want_star3 = fresh3();
  reference_run(star3, want_star3, iters);
  Grid2D<float> want_wide = fresh_wide();
  reference_run(star2, want_wide, wide_iters);

  StencilEngine engine(eopts);
  const Stopwatch campaign_clock;
  int checks_failed = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) ++checks_failed;
  };

  // ---- Phase A: the breaker must trip, reroute, and recover. --------
  std::cout << "phase A: circuit breaker (threshold "
            << eopts.breaker_threshold << ", cooldown "
            << eopts.breaker_cooldown.count() << " ms)\n";
  std::deque<FaultInjector> injectors;
  int phase_a_failed = 0;
  for (int i = 0; i < eopts.breaker_threshold; ++i) {
    FaultInjector fi(FaultPlan::parse(
        "seed=" + std::to_string(seed + std::uint64_t(i) + 1) +
        ",kernel_hang:p=1:n=inf"));
    JobSpec spec(star2, c2, fresh2(), iters);
    spec.backend = Backend::concurrent;  // explicit: no resilient rescue
    spec.injector = &fi;
    spec.watchdog_deadline = std::chrono::milliseconds(40);
    spec.label = "breaker-fault-" + std::to_string(i);
    JobHandle h = engine.submit(std::move(spec));
    (void)h.wait_or_cancel(std::chrono::milliseconds(30000));
    engine.wait_idle();  // injector lives on this stack frame
    if (h.status() == JobStatus::failed) ++phase_a_failed;
  }
  check(phase_a_failed == eopts.breaker_threshold,
        "fault-injected concurrent jobs failed (" +
            std::to_string(phase_a_failed) + "/" +
            std::to_string(eopts.breaker_threshold) + ")");
  check(engine.breaker_state(Backend::concurrent) == BreakerState::open,
        "concurrent breaker tripped open");

  JobSpec reroute_spec(star2, c2, fresh2(), iters);
  reroute_spec.backend = Backend::concurrent;
  reroute_spec.label = "breaker-reroute";
  JobResult rerouted = engine.run(std::move(reroute_spec));
  check(rerouted.rerouted && rerouted.backend == Backend::sync_sim,
        "open breaker rerouted a concurrent job to sync_sim");
  check(compare_exact(rerouted.grid2d(), want_star2).identical(),
        "rerouted job stayed bit-exact");

  std::this_thread::sleep_for(eopts.breaker_cooldown +
                              std::chrono::milliseconds(50));
  JobSpec probe_spec(star2, c2, fresh2(), iters);
  probe_spec.backend = Backend::concurrent;
  probe_spec.label = "breaker-probe";
  JobResult probe = engine.run(std::move(probe_spec));
  const bool recovered =
      !probe.rerouted && probe.backend == Backend::concurrent &&
      engine.breaker_state(Backend::concurrent) == BreakerState::closed;
  check(recovered, "post-cooldown probe ran on concurrent and closed "
                   "the breaker");
  check(compare_exact(probe.grid2d(), want_star2).identical(),
        "probe job stayed bit-exact");

  // ---- Phase B: mixed jobs under random cancels and deadlines. ------
  std::cout << "phase B: " << jobs << " mixed jobs, seed " << seed
            << " (random cancels + deadlines)\n";
  SplitMix64 rng(seed);
  enum Kind { kStar2, kBox2, kStar3, kWidePar, kResilient, kConcurrent };
  struct ChaosJob {
    JobHandle handle;
    int kind = 0;
    bool cancel_planned = false;
    bool has_deadline = false;
  };
  std::vector<ChaosJob> fleet;
  fleet.reserve(std::size_t(jobs) + 2);
  int cancels_requested = 0;
  int deadlines_assigned = 0;
  int faulted_jobs = 0;

  for (int i = 0; i < jobs; ++i) {
    const int kind = int(rng.next_below(6));
    JobSpec spec = [&]() -> JobSpec {
      switch (kind) {
        case kBox2: return {box2, c2, fresh2(), iters};
        case kStar3: return {star3, c3, fresh3(), iters};
        case kWidePar: return {star2, c2, fresh_wide(), wide_iters};
        default: return {star2, c2, fresh2(), iters};
      }
    }();
    if (kind == kWidePar) {
      spec.backend = Backend::block_parallel;
      spec.workers = 4;
    }
    if (kind == kConcurrent) spec.backend = Backend::concurrent;
    if (kind == kResilient) {
      // One budgeted, survivable hang per resilient job; the runner
      // absorbs it (watchdog trip + replay), so the job still finishes
      // bit-exact. Injectors outlive their jobs in the deque.
      injectors.emplace_back(FaultPlan::parse(
          "seed=" + std::to_string(seed + std::uint64_t(i)) +
          ",kernel_hang:n=1"));
      spec.injector = &injectors.back();
      spec.backend = Backend::resilient;
      spec.resilience.base.watchdog_deadline =
          std::chrono::milliseconds(40);
      ++faulted_jobs;
    }
    ChaosJob job;
    job.kind = kind;
    if (rng.next_float01() < 0.15f) {
      // Mostly-loose deadlines keep the done/expired mix interesting
      // without starving the bit-exactness sample.
      spec.deadline = rng.next_float01() < 0.3f
                          ? std::chrono::milliseconds(1)
                          : std::chrono::milliseconds(5000);
      job.has_deadline = true;
      ++deadlines_assigned;
    }
    job.cancel_planned = rng.next_float01() < 0.2f;
    spec.label = "chaos-" + std::to_string(i);
    job.handle = engine.submit(std::move(spec));
    fleet.push_back(std::move(job));
  }

  // Two guaranteed extremes: a long block-parallel job cancelled while
  // streaming, and a job whose deadline cannot possibly be met.
  {
    JobSpec spec(star2, c2, fresh_slow(), 5000);
    spec.backend = Backend::block_parallel;
    spec.workers = 4;
    spec.label = "chaos-guaranteed-cancel";
    ChaosJob job;
    job.kind = kWidePar;
    job.cancel_planned = true;
    job.handle = engine.submit(std::move(spec));
    fleet.push_back(std::move(job));
  }
  {
    JobSpec spec(star2, c2, fresh_slow(), 5000);
    spec.deadline = std::chrono::milliseconds(1);
    spec.label = "chaos-guaranteed-deadline";
    ChaosJob job;
    job.kind = kStar2;
    job.has_deadline = true;
    job.handle = engine.submit(std::move(spec));
    fleet.push_back(std::move(job));
  }

  // The canceller: sweep the fleet while it executes, cancelling the
  // planned ~20% with a small jitter so cancels land on queued jobs,
  // running jobs, and already-finished jobs alike.
  std::thread canceller([&] {
    SplitMix64 crng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (ChaosJob& job : fleet) {
      if (!job.cancel_planned) continue;
      std::this_thread::sleep_for(
          std::chrono::microseconds(crng.next_below(2000)));
      job.handle.cancel();
      ++cancels_requested;
    }
  });
  canceller.join();

  int done = 0, cancelled = 0, deadline_exceeded = 0, failed = 0;
  int bit_exact = 0, hung = 0;
  for (ChaosJob& job : fleet) {
    const JobStatus status =
        job.handle.wait_or_cancel(std::chrono::milliseconds(30000));
    switch (status) {
      case JobStatus::done: {
        ++done;
        JobResult& r = job.handle.wait();
        bool ok = false;
        switch (job.kind) {
          case kBox2: ok = compare_exact(r.grid2d(), want_box2).identical();
                      break;
          case kStar3: ok = compare_exact(r.grid3d(), want_star3).identical();
                       break;
          case kWidePar: ok = compare_exact(r.grid2d(), want_wide).identical();
                         break;
          default: ok = compare_exact(r.grid2d(), want_star2).identical();
                   break;
        }
        bit_exact += ok ? 1 : 0;
        break;
      }
      case JobStatus::cancelled: ++cancelled; break;
      case JobStatus::deadline_exceeded: ++deadline_exceeded; break;
      case JobStatus::failed: ++failed; break;
      default: ++hung; break;  // non-terminal after wait_or_cancel: a hang
    }
  }
  engine.drain();
  const double wall_seconds = campaign_clock.seconds();
  const EngineStats stats = engine.stats();
  const std::int64_t outstanding = engine.buffer_pool().outstanding();
  const int total = int(fleet.size());

  // Cancel-latency percentiles from the engine histogram.
  const MetricsSnapshot snap = engine.telemetry().metrics().snapshot();
  const MetricSample* lat = snap.find("engine.cancel_latency_ns");
  std::int64_t lat_count = 0, lat_p50 = 0, lat_p99 = 0;
  if (lat != nullptr && lat->value > 0) {
    lat_count = lat->value;
    const auto percentile = [&](double q) -> std::int64_t {
      std::int64_t cum = 0;
      const std::int64_t want_rank =
          std::int64_t(q * double(lat_count) + 0.5);
      for (std::size_t b = 0; b < lat->buckets.size(); ++b) {
        cum += lat->buckets[b];
        if (cum >= want_rank) {
          // Overflow bucket reports the largest finite bound.
          return b < lat->bounds.size() ? lat->bounds[b]
                                        : lat->bounds.back();
        }
      }
      return lat->bounds.back();
    };
    lat_p50 = percentile(0.50);
    lat_p99 = percentile(0.99);
  }

  std::cout << "phase B results (" << format_fixed(wall_seconds, 2)
            << " s wall)\n";
  TextTable t({"outcome", "count"});
  t.add_row({"done", std::to_string(done)});
  t.add_row({"bit-exact", std::to_string(bit_exact)});
  t.add_row({"cancelled", std::to_string(cancelled)});
  t.add_row({"deadline exceeded", std::to_string(deadline_exceeded)});
  t.add_row({"failed", std::to_string(failed)});
  t.add_row({"cancel latency p50 (us)", std::to_string(lat_p50 / 1000)});
  t.add_row({"cancel latency p99 (us)", std::to_string(lat_p99 / 1000)});
  t.add_row({"breaker trips", std::to_string(stats.breaker_trips)});
  t.add_row({"breaker reroutes", std::to_string(stats.breaker_reroutes)});
  t.add_row({"pool outstanding", std::to_string(outstanding)});
  t.render(std::cout);

  check(hung == 0, "every job reached a terminal state (no hangs)");
  check(done + cancelled + deadline_exceeded + failed == total,
        "status counts sum to the fleet size");
  check(failed == 0, "zero unexpected failures");
  check(bit_exact == done, "every surviving job bit-exact (" +
                               std::to_string(bit_exact) + "/" +
                               std::to_string(done) + ")");
  check(cancelled >= 1, "at least one cancellation observed");
  check(deadline_exceeded >= 1, "at least one deadline expiry observed");
  check(outstanding == 0, "buffer pool has zero outstanding leases");
  check(stats.breaker_trips >= 1 && stats.breaker_reroutes >= 1,
        "breaker tripped and rerouted");
  check(engine.state() == EngineState::stopped, "engine drained to stopped");

  const std::string json_path = a.get_str("json", "");
  if (!json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("chaos_campaign");
    write_host_profile(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("engine").begin_object();
    w.key("workers").value(eopts.workers);
    w.key("queue_capacity").value(std::int64_t(eopts.queue_capacity));
    w.key("breaker_threshold").value(eopts.breaker_threshold);
    w.key("breaker_cooldown_ms")
        .value(std::int64_t(eopts.breaker_cooldown.count()));
    w.end_object();
    w.key("campaign").begin_object();
    w.key("jobs").value(total);
    w.key("seed").value(std::int64_t(seed));
    w.key("cancels_requested").value(cancels_requested);
    w.key("deadlines_assigned").value(deadlines_assigned + 1);
    w.key("faulted_jobs").value(faulted_jobs);
    w.key("wall_seconds").value(wall_seconds);
    w.end_object();
    w.key("results").begin_object();
    w.key("done").value(done);
    w.key("cancelled").value(cancelled);
    w.key("deadline_exceeded").value(deadline_exceeded);
    w.key("failed").value(failed);
    w.key("bit_exact").value(bit_exact);
    w.key("hung").value(hung);
    w.end_object();
    w.key("cancel_latency_ns").begin_object();
    w.key("count").value(lat_count);
    w.key("p50").value(lat_p50);
    w.key("p99").value(lat_p99);
    w.end_object();
    w.key("breaker").begin_object();
    w.key("trips").value(stats.breaker_trips);
    w.key("reroutes").value(stats.breaker_reroutes);
    w.key("recovered").value(recovered);
    w.end_object();
    w.key("pool").begin_object();
    w.key("outstanding").value(outstanding);
    w.key("allocations").value(stats.pool_allocations);
    w.key("reuses").value(stats.pool_reuses);
    w.end_object();
    w.end_object();
    if (!json_is_valid(body.str())) {
      std::cerr << "stencilctl: internal error: chaos JSON failed "
                   "validation\n";
      return 1;
    }
    std::ofstream file(json_path);
    if (!file) throw ConfigError("cannot open --json file `" + json_path + "`");
    file << body.str() << "\n";
    std::cout << "chaos scorecard written to " << json_path << "\n";
  }

  std::cout << "chaos campaign "
            << (checks_failed == 0 ? "passed" : "FAILED") << " ("
            << checks_failed << " self-checks failed)\n";
  return checks_failed == 0 ? 0 : 1;
}

// The serving-tier campaign: the end-to-end proof for the sharded
// multi-tenant tier (docs/SERVING.md). One EngineCluster, a skewed
// five-tenant mix over sixteen job kinds, a mid-campaign drain+reload of
// shard 1, and exact accounting of every submission. Three phases:
//
//   Scale probe: a fixed mixed batch through a 1-shard/1-worker cluster
//   and then through the full topology. Like blockpar, the 3/8-linear
//   speedup gate is only *checked* when the host really has
//   shards*workers cores; on smaller hosts it is recorded as unchecked
//   (speedup_gate_checked=false) instead of failing.
//
//   Calibration: a clean alpha/beta-only slice, fully collected, whose
//   per-class p99 becomes the isolation baseline.
//
//   Main: the remaining jobs with all five tenants -- gamma is
//   rate-capped (rejections expected and counted), delta is
//   inflight-capped with blocking backpressure, mallory carries a
//   seeded fault injector (kernel hangs survived by the resilient
//   backend + watchdog). A sliding submission window bounds memory;
//   shard 1 is drained at 40% and reloaded at 70% of the phase.
int cmd_serve(const Args& a) {
  const std::int64_t jobs = a.get("jobs", 100000);
  const int shards = static_cast<int>(a.get("shards", 3));
  const int workers = static_cast<int>(a.get("workers", 2));
  const int iters = static_cast<int>(a.get("iters", 2));
  const std::uint64_t seed = std::uint64_t(a.get("seed", 8));
  const std::int64_t window_cap = a.get("window", 256);
  if (jobs < 100) throw ConfigError("--jobs must be >= 100");
  if (shards < 1) throw ConfigError("--shards must be >= 1");
  if (workers < 1) throw ConfigError("--workers must be >= 1");
  if (window_cap < 8) throw ConfigError("--window must be >= 8");

  // ---- The sixteen job kinds: star/box x 2D/3D x radius 1..4. -------
  struct Kind {
    std::string name;
    TapSet taps;
    AcceleratorConfig cfg;
    bool is_3d = false;
    std::int64_t nx = 0, ny = 0, nz = 1;
    unsigned gseed = 0;
    Grid2D<float> want2{1, 1};
    Grid3D<float> want3{1, 1, 1};
  };
  std::vector<Kind> kinds;
  for (const int dims : {2, 3}) {
    for (int radius = 1; radius <= 4; ++radius) {
      for (int box = 0; box < 2; ++box) {
        const int id = int(kinds.size());
        AcceleratorConfig cfg;
        cfg.dims = dims;
        cfg.radius = radius;
        cfg.parvec = 4;
        cfg.partime = radius == 1 ? 2 : 1;
        cfg.bsize_x = dims == 2 ? 32 : 16;
        cfg.bsize_y = dims == 3 ? (radius >= 3 ? 16 : 8) : 1;
        cfg.validate();
        TapSet taps =
            box != 0
                ? make_box_stencil(dims, radius, std::uint64_t(21 + id))
                : StarStencil::make_benchmark(dims, radius,
                                              std::uint64_t(5 + id))
                      .to_taps();
        Kind k{std::string(box != 0 ? "box" : "star") +
                   std::to_string(dims) + "d-r" + std::to_string(radius),
               std::move(taps),
               cfg,
               dims == 3,
               // High-radius 3D boxes have up to 9^3 taps; a smaller grid
               // keeps their per-job cost in line with the other kinds.
               dims == 2 ? 48 : (radius >= 3 ? 16 : 20),
               dims == 2 ? 20 : (radius >= 3 ? 12 : 14),
               dims == 2 ? 1 : (radius >= 3 ? 8 : 10),
               unsigned(10 + id),
               Grid2D<float>(1, 1),
               Grid3D<float>(1, 1, 1)};
        if (k.is_3d) {
          Grid3D<float> g(k.nx, k.ny, k.nz);
          g.fill_random(k.gseed);
          k.want3 = std::move(g);
          reference_run(k.taps, k.want3, iters);
        } else {
          Grid2D<float> g(k.nx, k.ny);
          g.fill_random(k.gseed);
          k.want2 = std::move(g);
          reference_run(k.taps, k.want2, iters);
        }
        kinds.push_back(std::move(k));
      }
    }
  }
  const auto spec_for = [&](const Kind& k) -> JobSpec {
    if (k.is_3d) {
      Grid3D<float> g(k.nx, k.ny, k.nz);
      g.fill_random(k.gseed);
      return {k.taps, k.cfg, std::move(g), iters};
    }
    Grid2D<float> g(k.nx, k.ny);
    g.fill_random(k.gseed);
    return {k.taps, k.cfg, std::move(g), iters};
  };

  // ---- The tenant mix (skewed, with one bad actor). -----------------
  struct TenantDef {
    const char* name;
    QosClass qos;
    const char* role;
  };
  enum { kAlpha = 0, kBeta, kGamma, kDelta, kMallory, kTenantCount };
  const std::array<TenantDef, kTenantCount> tenants = {{
      {"alpha", QosClass::standard, "clean bulk (50%)"},
      {"beta", QosClass::interactive, "latency-sensitive (25%)"},
      {"gamma", QosClass::batch, "rate-capped (15%)"},
      {"delta", QosClass::standard, "inflight-capped, blocking (5%)"},
      {"mallory", QosClass::batch, "seeded kernel hangs (5%)"},
  }};

  ClusterOptions copts;
  copts.shards = shards;
  copts.engine.workers = workers;
  copts.engine.queue_capacity = std::size_t(window_cap) + 64;
  copts.quotas["gamma"] =
      TenantQuota{/*max_inflight=*/0, /*rate_per_s=*/200.0, /*burst=*/20.0,
                  /*block=*/false};
  copts.quotas["delta"] =
      TenantQuota{/*max_inflight=*/8, /*rate_per_s=*/0.0, /*burst=*/0.0,
                  /*block=*/true};

  // Survivable faults for mallory only: the resilient backend's watchdog
  // recovers each hang, so even mallory's jobs must terminate done.
  FaultInjector mallory_faults(FaultPlan::parse(
      "seed=" + std::to_string(seed) + ",kernel_hang:p=0.05:n=12"));

  int checks_failed = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) ++checks_failed;
  };
  const auto pct = [](std::vector<std::int64_t>& v,
                      double q) -> std::int64_t {
    if (v.empty()) return 0;
    const auto idx = std::ptrdiff_t(q * double(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[std::size_t(idx)];
  };

  // ---- Scale probe (own clusters, not part of the accounting). ------
  const unsigned hc = std::thread::hardware_concurrency();
  const int needed_cores = shards * workers;
  const std::int64_t probe_jobs =
      std::clamp<std::int64_t>(jobs / 250, 64, 400);
  const auto probe_wall = [&](int pshards, int pworkers) {
    ClusterOptions po;
    po.shards = pshards;
    po.engine.workers = pworkers;
    po.engine.queue_capacity = std::size_t(probe_jobs) + 16;
    EngineCluster probe(po);
    const Stopwatch sw;
    std::vector<JobHandle> hs;
    hs.reserve(std::size_t(probe_jobs));
    for (std::int64_t i = 0; i < probe_jobs; ++i) {
      hs.push_back(probe.submit(spec_for(kinds[std::size_t(i) %
                                               kinds.size()])));
    }
    for (JobHandle& h : hs) {
      (void)h.wait_or_cancel(std::chrono::milliseconds(180000));
    }
    return sw.seconds();
  };
  std::cout << "scale probe: " << probe_jobs << " mixed jobs, 1x1 vs "
            << shards << "x" << workers << " (host has " << hc
            << " hardware threads)\n";
  const double probe_single = probe_wall(1, 1);
  const double probe_cluster = probe_wall(shards, workers);
  const double probe_speedup =
      probe_cluster > 0.0 ? probe_single / probe_cluster : 0.0;
  const bool gate_checked = hc >= unsigned(needed_cores);
  const bool gate_ok =
      !gate_checked || probe_speedup >= 0.375 * double(needed_cores);
  std::cout << "  speedup " << format_fixed(probe_speedup, 2)
            << "x; 3/8-linear gate "
            << (gate_checked ? (gate_ok ? "passed" : "FAILED")
                             : "skipped (not enough cores)")
            << "\n";

  // ---- The campaign proper. -----------------------------------------
  EngineCluster cluster(copts);
  const Stopwatch campaign_clock;
  SplitMix64 rng(seed);

  struct Pending {
    JobHandle handle;
    int kind;
    int tenant;
    bool calib;
    std::shared_ptr<std::vector<float>> sunk;
  };
  std::deque<Pending> window;

  std::int64_t attempted = 0, submitted_ok = 0, rejected = 0;
  std::int64_t done = 0, failed = 0, hung = 0, bit_exact = 0;
  std::int64_t sink_jobs = 0, sink_exact = 0, chunks_delivered = 0;
  std::array<std::int64_t, kTenantCount> t_submitted{}, t_rejected{},
      t_done{};
  std::array<std::vector<std::int64_t>, kQosClassCount> lat_main, lat_calib;
  std::array<std::vector<std::int64_t>, kTenantCount> lat_tenant;

  const auto collect_one = [&] {
    Pending p = std::move(window.front());
    window.pop_front();
    const JobStatus s =
        p.handle.wait_or_cancel(std::chrono::milliseconds(180000));
    if (s == JobStatus::failed) {
      ++failed;
      return;
    }
    if (s != JobStatus::done) {
      ++hung;
      return;
    }
    ++done;
    ++t_done[std::size_t(p.tenant)];
    JobResult& r = p.handle.wait();
    const Kind& k = kinds[std::size_t(p.kind)];
    bool ok = false;
    if (p.sunk) {
      ++sink_jobs;
      chunks_delivered += r.chunks_delivered;
      const float* want = k.is_3d ? k.want3.data() : k.want2.data();
      const auto n = std::size_t(k.is_3d ? k.want3.size() : k.want2.size());
      ok = p.sunk->size() == n &&
           std::equal(p.sunk->begin(), p.sunk->end(), want);
      sink_exact += ok ? 1 : 0;
    } else {
      ok = k.is_3d ? compare_exact(r.grid3d(), k.want3).identical()
                   : compare_exact(r.grid2d(), k.want2).identical();
    }
    bit_exact += ok ? 1 : 0;
    const std::int64_t lat = r.queue_ns + r.run_ns;
    auto& per_class = p.calib ? lat_calib : lat_main;
    per_class[std::size_t(tenants[std::size_t(p.tenant)].qos)].push_back(
        lat);
    if (!p.calib) lat_tenant[std::size_t(p.tenant)].push_back(lat);
  };

  const auto submit_one = [&](int tenant, int kind, bool calib) {
    ++attempted;
    JobSpec spec = spec_for(kinds[std::size_t(kind)]);
    spec.tenant = tenants[std::size_t(tenant)].name;
    spec.qos = tenants[std::size_t(tenant)].qos;
    spec.priority = int(rng.next_u64() % 4);
    std::shared_ptr<std::vector<float>> sunk;
    if (!calib && attempted % 97 == 0) {
      // ~1% of main-phase jobs stream their result in bands instead of
      // returning a grid; the bands must reassemble bit-exactly.
      sunk = std::make_shared<std::vector<float>>();
      spec.sink = [sunk](const ResultChunk& c) {
        sunk->insert(sunk->end(), c.data, c.data + c.values);
      };
      spec.sink_only = true;
      spec.chunk_values = 256;
    }
    if (tenant == kMallory) {
      // The watchdog bounds each hang's head-of-line blocking: one hung
      // worker recovers well inside the isolation gate's envelope, but
      // the deadline stays far above any clean job's contended runtime
      // so healthy work is never falsely tripped.
      spec.injector = &mallory_faults;
      spec.watchdog_deadline = std::chrono::milliseconds(250);
    }
    try {
      JobHandle h = cluster.submit(std::move(spec));
      window.push_back(
          Pending{std::move(h), kind, tenant, calib, std::move(sunk)});
      ++submitted_ok;
      ++t_submitted[std::size_t(tenant)];
    } catch (const QuotaExceededError&) {
      ++rejected;
      ++t_rejected[std::size_t(tenant)];
    }
    while (std::int64_t(window.size()) >= window_cap) collect_one();
  };

  // Phase 1: quota proof. Back-to-back gamma submissions overrun the
  // 20-token burst deterministically, whatever the host's speed.
  const std::int64_t proof_jobs = 30;
  std::cout << "phase 1: quota proof (" << proof_jobs
            << " back-to-back gamma submissions against burst 20)\n";
  for (std::int64_t i = 0; i < proof_jobs; ++i) {
    submit_one(kGamma, int(rng.next_u64() % kinds.size()), false);
  }

  // Phase 2: clean calibration slice, fully collected before the mixed
  // phase so its percentiles are an interference-free baseline.
  // The baseline must run at the same steady-state windowed load as the
  // main phase (several full windows), or its p99 reflects an empty
  // queue and the isolation gate compares unlike regimes.
  const std::int64_t calib_jobs = std::min(
      std::clamp<std::int64_t>(jobs / 10, 4 * window_cap, 5000),
      (jobs - proof_jobs) / 2);
  std::cout << "phase 2: calibration (" << calib_jobs
            << " clean alpha/beta jobs)\n";
  for (std::int64_t i = 0; i < calib_jobs; ++i) {
    submit_one(i % 2 == 0 ? kAlpha : kBeta,
               int(rng.next_u64() % kinds.size()), true);
  }
  while (!window.empty()) collect_one();

  // Phase 3: the mixed campaign with drain/reload of shard 1 mid-way.
  const std::int64_t main_jobs = jobs - proof_jobs - calib_jobs;
  const std::int64_t drain_at = main_jobs * 2 / 5;
  const std::int64_t reload_at = main_jobs * 7 / 10;
  std::cout << "phase 3: " << main_jobs << " mixed jobs, five tenants"
            << (shards > 1 ? ", drain shard 1 at 40%, reload at 70%" : "")
            << "\n";
  for (std::int64_t m = 0; m < main_jobs; ++m) {
    if (shards > 1 && m == drain_at) cluster.drain_shard(1);
    if (shards > 1 && m == reload_at) cluster.reload_shard(1);
    const std::uint64_t mix = rng.next_u64() % 100;
    const int tenant = mix < 50   ? kAlpha
                       : mix < 75 ? kBeta
                       : mix < 90 ? kGamma
                       : mix < 95 ? kDelta
                                  : kMallory;
    submit_one(tenant, int(rng.next_u64() % kinds.size()), false);
  }
  while (!window.empty()) collect_one();
  const double wall_seconds = campaign_clock.seconds();
  cluster.drain();

  // ---- Post-campaign accounting. ------------------------------------
  const MetricsSnapshot snap = cluster.telemetry().metrics().snapshot();
  std::vector<std::int64_t> shard_completed;
  std::vector<double> shard_hit_rate;
  std::int64_t pool_outstanding = 0;
  double min_hit_rate = 1.0;
  std::int64_t shard_total = 0, shard_max = 0;
  for (int k = 0; k < shards; ++k) {
    // Snapshot totals survive the mid-campaign reload (the fresh engine
    // keeps the shard's metrics prefix); stats() would not.
    const std::int64_t completed = snap.value_or(
        "engine.shard" + std::to_string(k) + ".jobs_completed", 0);
    shard_completed.push_back(completed);
    shard_total += completed;
    shard_max = std::max(shard_max, completed);
    const EngineStats st = cluster.shard(k).stats();
    shard_hit_rate.push_back(st.cache_hit_rate());
    if (completed > 0) min_hit_rate = std::min(min_hit_rate,
                                               st.cache_hit_rate());
    pool_outstanding += cluster.shard(k).buffer_pool().outstanding();
  }
  const double balance_bound = 3.0;
  const double balance_ratio =
      shard_total > 0
          ? double(shard_max) / (double(shard_total) / double(shards))
          : 0.0;

  // Isolation: clean classes in the mixed phase vs their calibration
  // baseline. Self-normalized (6x or +250 ms, whichever is looser) so
  // the gate measures interference, not absolute host speed.
  const auto iso_bound = [](std::int64_t calib_p99) {
    return std::max(calib_p99 * 6, calib_p99 + std::int64_t(250000000));
  };
  const std::int64_t calib_p99_inter =
      pct(lat_calib[std::size_t(QosClass::interactive)], 0.99);
  const std::int64_t calib_p99_std =
      pct(lat_calib[std::size_t(QosClass::standard)], 0.99);
  const std::int64_t main_p99_inter =
      pct(lat_main[std::size_t(QosClass::interactive)], 0.99);
  const std::int64_t main_p99_std =
      pct(lat_main[std::size_t(QosClass::standard)], 0.99);
  const bool iso_inter = main_p99_inter <= iso_bound(calib_p99_inter);
  const bool iso_std = main_p99_std <= iso_bound(calib_p99_std);

  std::cout << "campaign wall " << format_fixed(wall_seconds, 2) << " s, "
            << format_fixed(double(done) / wall_seconds, 0) << " jobs/s\n";
  TextTable classes_table(
      {"class", "jobs", "p50 us", "p99 us", "p999 us", "jobs/s"});
  for (int c = 0; c < kQosClassCount; ++c) {
    auto& v = lat_main[std::size_t(c)];
    classes_table.add_row(
        {qos_class_name(QosClass(c)), std::to_string(v.size()),
         std::to_string(pct(v, 0.50) / 1000),
         std::to_string(pct(v, 0.99) / 1000),
         std::to_string(pct(v, 0.999) / 1000),
         format_fixed(double(v.size()) / wall_seconds, 1)});
  }
  classes_table.render(std::cout);
  TextTable tenant_table(
      {"tenant", "role", "submitted", "rejected", "done", "p99 us"});
  for (int t = 0; t < kTenantCount; ++t) {
    tenant_table.add_row(
        {tenants[std::size_t(t)].name, tenants[std::size_t(t)].role,
         std::to_string(t_submitted[std::size_t(t)]),
         std::to_string(t_rejected[std::size_t(t)]),
         std::to_string(t_done[std::size_t(t)]),
         std::to_string(pct(lat_tenant[std::size_t(t)], 0.99) / 1000)});
  }
  tenant_table.render(std::cout);
  TextTable shard_table({"shard", "completed", "hit rate"});
  for (int k = 0; k < shards; ++k) {
    shard_table.add_row(
        {std::to_string(k),
         std::to_string(shard_completed[std::size_t(k)]),
         format_percent(shard_hit_rate[std::size_t(k)])});
  }
  shard_table.render(std::cout);

  check(attempted == jobs,
        "every requested job was attempted (" + std::to_string(attempted) +
            "/" + std::to_string(jobs) + ")");
  check(submitted_ok + rejected == attempted,
        "accounting: submitted + rejected == attempted");
  check(done + failed + hung == submitted_ok,
        "accounting: every admitted job reached exactly one outcome");
  check(failed == 0, "zero failed jobs");
  check(hung == 0, "zero hung jobs");
  check(bit_exact == done, "every completed job bit-exact (" +
                               std::to_string(bit_exact) + "/" +
                               std::to_string(done) + ")");
  check(sink_jobs >= 1 && sink_exact == sink_jobs,
        "chunked deliveries reassembled exactly (" +
            std::to_string(sink_exact) + "/" + std::to_string(sink_jobs) +
            " over " + std::to_string(chunks_delivered) + " chunks)");
  check(rejected >= 1, "quota admission produced at least one rejection");
  check(mallory_faults.total_fires() >= 1,
        "seeded faults actually fired (" +
            std::to_string(mallory_faults.total_fires()) + ")");
  check(min_hit_rate > 0.9,
        "per-shard plan-cache hit rate > 0.9 (min " +
            format_fixed(min_hit_rate * 100.0, 1) + "%)");
  check(balance_ratio <= balance_bound,
        "shard balance max/mean " + format_fixed(balance_ratio, 2) +
            " within " + format_fixed(balance_bound, 1));
  check(pool_outstanding == 0, "zero leaked buffer-pool leases");
  check(iso_inter && iso_std,
        "faulty tenant never degraded clean p99 (interactive " +
            std::to_string(main_p99_inter / 1000) + " us vs calib " +
            std::to_string(calib_p99_inter / 1000) + " us)");
  if (shards > 1) {
    check(snap.value_or("cluster.shard_drains", 0) >= 1 &&
              snap.value_or("cluster.shard_reloads", 0) >= 1,
          "mid-campaign drain + reload exercised");
  }
  check(gate_ok, gate_checked
                     ? "scale probe reached 3/8-linear speedup"
                     : "scale probe gate skipped (host too small; "
                       "recorded unchecked)");

  const std::string json_path = a.get_str("json", "");
  if (!json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("serving_campaign");
    write_host_profile(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("cluster").begin_object();
    w.key("shards").value(shards);
    w.key("workers_per_shard").value(workers);
    w.key("vnodes_per_shard").value(copts.vnodes_per_shard);
    w.key("queue_capacity").value(std::int64_t(copts.engine.queue_capacity));
    w.key("class_weights").begin_array();
    for (const int cw : copts.engine.class_weights) w.value(cw);
    w.end_array();
    w.end_object();
    w.key("campaign").begin_object();
    w.key("jobs_attempted").value(attempted);
    w.key("quota_proof_jobs").value(proof_jobs);
    w.key("calibration_jobs").value(calib_jobs);
    w.key("main_jobs").value(main_jobs);
    w.key("job_kinds").value(std::int64_t(kinds.size()));
    w.key("iters").value(iters);
    w.key("seed").value(std::int64_t(seed));
    w.key("window").value(window_cap);
    w.key("wall_seconds").value(wall_seconds);
    w.end_object();
    w.key("results").begin_object();
    w.key("submitted").value(submitted_ok);
    w.key("rejected").value(rejected);
    w.key("done").value(done);
    w.key("failed").value(failed);
    w.key("hung").value(hung);
    w.key("bit_exact").value(bit_exact);
    w.key("sink_jobs").value(sink_jobs);
    w.key("sink_exact").value(sink_exact);
    w.key("chunks_delivered").value(chunks_delivered);
    w.key("faults_fired").value(mallory_faults.total_fires());
    w.end_object();
    w.key("classes").begin_array();
    for (int c = 0; c < kQosClassCount; ++c) {
      auto& v = lat_main[std::size_t(c)];
      w.begin_object();
      w.key("name").value(qos_class_name(QosClass(c)));
      w.key("jobs").value(std::int64_t(v.size()));
      w.key("p50_ns").value(pct(v, 0.50));
      w.key("p99_ns").value(pct(v, 0.99));
      w.key("p999_ns").value(pct(v, 0.999));
      w.key("jobs_per_s").value(double(v.size()) / wall_seconds);
      w.end_object();
    }
    w.end_array();
    w.key("tenants").begin_array();
    for (int t = 0; t < kTenantCount; ++t) {
      w.begin_object();
      w.key("name").value(tenants[std::size_t(t)].name);
      w.key("class").value(qos_class_name(tenants[std::size_t(t)].qos));
      w.key("role").value(tenants[std::size_t(t)].role);
      w.key("submitted").value(t_submitted[std::size_t(t)]);
      w.key("rejected").value(t_rejected[std::size_t(t)]);
      w.key("done").value(t_done[std::size_t(t)]);
      w.key("p50_ns").value(pct(lat_tenant[std::size_t(t)], 0.50));
      w.key("p99_ns").value(pct(lat_tenant[std::size_t(t)], 0.99));
      w.end_object();
    }
    w.end_array();
    w.key("shards").begin_array();
    for (int k = 0; k < shards; ++k) {
      w.begin_object();
      w.key("shard").value(k);
      w.key("jobs_completed").value(shard_completed[std::size_t(k)]);
      w.key("cache_hit_rate").value(shard_hit_rate[std::size_t(k)]);
      w.end_object();
    }
    w.end_array();
    w.key("balance").begin_object();
    w.key("max_over_mean").value(balance_ratio);
    w.key("bound").value(balance_bound);
    w.end_object();
    w.key("isolation").begin_object();
    w.key("calib_interactive_p99_ns").value(calib_p99_inter);
    w.key("main_interactive_p99_ns").value(main_p99_inter);
    w.key("calib_standard_p99_ns").value(calib_p99_std);
    w.key("main_standard_p99_ns").value(main_p99_std);
    w.key("passed").value(iso_inter && iso_std);
    w.end_object();
    w.key("router").begin_object();
    w.key("reroutes").value(snap.value_or("cluster.submit_reroutes", 0));
    w.key("shard_drains").value(snap.value_or("cluster.shard_drains", 0));
    w.key("shard_reloads").value(snap.value_or("cluster.shard_reloads", 0));
    w.end_object();
    w.key("pool").begin_object();
    w.key("outstanding").value(pool_outstanding);
    w.end_object();
    w.key("scale_probe").begin_object();
    w.key("probe_jobs").value(probe_jobs);
    w.key("single_wall_seconds").value(probe_single);
    w.key("cluster_wall_seconds").value(probe_cluster);
    w.key("speedup").value(probe_speedup);
    w.key("needed_cores").value(needed_cores);
    w.key("hardware_concurrency").value(std::int64_t(hc));
    w.key("speedup_gate_checked").value(gate_checked);
    w.key("speedup_gate_ok").value(gate_ok);
    w.end_object();
    w.end_object();
    if (!json_is_valid(body.str())) {
      std::cerr << "stencilctl: internal error: serve JSON failed "
                   "validation\n";
      return 1;
    }
    std::ofstream file(json_path);
    if (!file) throw ConfigError("cannot open --json file `" + json_path + "`");
    file << body.str() << "\n";
    std::cout << "serving scorecard written to " << json_path << "\n";
  }

  std::cout << "serving campaign "
            << (checks_failed == 0 ? "passed" : "FAILED") << " ("
            << checks_failed << " self-checks failed)\n";
  return checks_failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// tune: empirical host autotuning (PR 9; docs/TUNING.md). Sweeps the
// kernel envelope measuring paper-default vs empirically searched block
// geometry with real runs (the tuner's short probes only pick the plan),
// verifies bit-exactness at every point, and with --json exports the
// BENCH_PR9.json "autotune" scorecard. --serve runs the engine
// integration self-check instead: one search on the first job, then a
// tuner.cache_hit for every later job on the same spec.

TapSet tune_taps(const std::string& shape, int dims, int radius) {
  if (shape == "star") {
    return StarStencil::make_benchmark(dims, radius, 99).to_taps();
  }
  return make_box_stencil(dims, radius, 99);
}

/// The geometry the repository's benches run with when the user does not
/// choose (2D 4096-wide blocks, 3D 256x128, four chained PEs).
AcceleratorConfig tune_default_config(int dims, int radius) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = 4;
  cfg.partime = 4;
  cfg.bsize_x = dims == 2 ? 4096 : 256;
  cfg.bsize_y = dims == 3 ? 128 : 1;
  return cfg;
}

std::string tune_geometry(const AcceleratorConfig& cfg) {
  std::ostringstream os;
  os << "b" << cfg.bsize_x;
  if (cfg.dims == 3) os << "x" << cfg.bsize_y;
  os << ",t" << cfg.partime;
  return os.str();
}

bool tune_same_geometry(const AcceleratorConfig& a,
                        const AcceleratorConfig& b) {
  return a.bsize_x == b.bsize_x && a.bsize_y == b.bsize_y &&
         a.partime == b.partime;
}

double tune_mcells(std::int64_t cells, int iters, double seconds) {
  return seconds > 0.0 ? double(cells) * iters / seconds / 1e6 : 0.0;
}

template <typename GridT>
double tune_time_run(const TapSet& taps, const AcceleratorConfig& cfg,
                     GridT& grid, int iters) {
  StencilAccelerator accel(taps, cfg);
  const Stopwatch clock;
  (void)accel.run(grid, iters);
  return double(clock.nanoseconds()) / 1e9;
}

struct TunePoint {
  std::string name;
  std::string shape;  ///< "star" or "box"
  int dims = 2, radius = 1, parvec = 4;
  std::int64_t nx = 0, ny = 0, nz = 1;
  int iters = 0;
  std::string default_config, model_config, tuned_config;
  double default_mcells = 0.0;
  double model_mcells = 0.0;
  double tuned_mcells = 0.0;
  double probe_tuned_mcells = 0.0;
  double probe_baseline_mcells = 0.0;
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

template <typename GridT>
TunePoint tune_point(HostAutotuner& tuner, const std::string& shape,
                     int radius, const GridT& init) {
  constexpr int dims = std::is_same_v<GridT, Grid3D<float>> ? 3 : 2;
  const TapSet taps = tune_taps(shape, dims, radius);
  const AcceleratorConfig base = tune_default_config(dims, radius);

  TunePoint r;
  r.shape = shape;
  r.dims = dims;
  r.radius = radius;
  r.parvec = base.parvec;
  r.nx = init.nx();
  r.ny = init.ny();
  if constexpr (dims == 3) r.nz = init.nz();
  r.iters = base.partime;
  r.name = shape + "_" + std::to_string(dims) + "d_r" + std::to_string(radius);
  const std::int64_t cells = r.nx * r.ny * r.nz;

  // Search first (its probes never touch the measurement grids), then
  // measure the winner with a real run on the target grid.
  const AutotuneOutcome found = tuner.search(taps, base, r.nx, r.ny, r.nz);
  r.probe_tuned_mcells = found.tuned_mcells;
  r.probe_baseline_mcells = found.baseline_mcells;
  r.candidates_probed = found.candidates_probed;
  r.search_ns = found.search_ns;

  // What a model-only tuner would pick: the lowest-cost non-default
  // candidate from the cache-model seeding.
  const std::vector<AcceleratorConfig> candidates =
      enumerate_plan_candidates(base, r.nx, r.ny, r.nz);
  const AcceleratorConfig model_cfg =
      candidates.size() > 1 ? candidates[1] : base;

  r.default_config = tune_geometry(base);
  r.model_config = tune_geometry(model_cfg);
  r.tuned_config = tune_geometry(found.config);

  GridT reference = init;
  r.default_mcells = tune_mcells(
      cells, r.iters, tune_time_run(taps, base, reference, r.iters));

  const auto measure_vs_reference = [&](const AcceleratorConfig& cfg,
                                        double& out_mcells) {
    if (tune_same_geometry(cfg, base)) {
      out_mcells = r.default_mcells;  // same plan: same bits, same speed
      return;
    }
    GridT alt = init;
    out_mcells = tune_mcells(cells, r.iters,
                             tune_time_run(taps, cfg, alt, r.iters));
    r.exact = r.exact && compare_exact(alt, reference).identical();
  };
  measure_vs_reference(model_cfg, r.model_mcells);
  measure_vs_reference(found.config, r.tuned_mcells);
  return r;
}

/// --serve: engine-integration self-check. One engine with
/// autotune=search serves J identical jobs; the first job's plan build
/// runs the (only) search, every later job must account as a
/// tuner.cache_hit, and every result must be bit-exact with the untuned
/// paper-default geometry.
int cmd_tune_serve(const Args& a) {
  const int jobs = static_cast<int>(a.get("jobs", 12));
  const int iters = 4;
  if (jobs < 2) throw ConfigError("--jobs must be >= 2");

  EngineOptions eopts;
  eopts.workers = static_cast<int>(a.get("workers", 2));
  eopts.autotune = AutotuneMode::search;
  eopts.tuning_cache_path = a.get_str("cache", "");
  eopts.autotune_probe_cells = a.get("probe-cells", 16 * 1024);

  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const AcceleratorConfig cfg = tune_default_config(2, 2);
  Grid2D<float> init(96, 64);
  init.fill_random(41, -1.0f, 1.0f);
  Grid2D<float> want = init;
  StencilAccelerator(taps, cfg).run(want, iters);

  StencilEngine engine(eopts);
  // Warm-up job: populates the plan cache, so it is the only job whose
  // build may probe.
  int exact = 0;
  int tuned = 0;
  {
    JobSpec spec{taps, cfg, Grid2D<float>(init), iters};
    spec.label = "tune-warmup";
    // Hold the handle across the result read: wait() hands out a
    // reference into handle-owned state.
    JobHandle warm = engine.submit(std::move(spec));
    JobResult& r = warm.wait();
    exact += compare_exact(r.grid2d(), want).identical() ? 1 : 0;
    tuned += r.plan_tuned ? 1 : 0;
  }
  std::vector<JobHandle> handles;
  handles.reserve(std::size_t(jobs - 1));
  for (int i = 1; i < jobs; ++i) {
    JobSpec spec{taps, cfg, Grid2D<float>(init), iters};
    spec.label = "tune-" + std::to_string(i);
    handles.push_back(engine.submit(std::move(spec)));
  }
  for (JobHandle& h : handles) {
    JobResult& r = h.wait();
    exact += compare_exact(r.grid2d(), want).identical() ? 1 : 0;
    tuned += r.plan_tuned ? 1 : 0;
  }
  const EngineStats s = engine.stats();

  TextTable t({"counter", "value"});
  t.add_row({"jobs", std::to_string(jobs)});
  t.add_row({"jobs bit-exact", std::to_string(exact)});
  t.add_row({"jobs on tuned plan", std::to_string(tuned)});
  t.add_row({"tuner.search_runs", std::to_string(s.tuner_search_runs)});
  t.add_row({"tuner.cache_miss", std::to_string(s.tuner_cache_misses)});
  t.add_row({"tuner.cache_hit", std::to_string(s.tuner_cache_hits)});
  t.add_row({"tuner.search_candidates",
             std::to_string(s.tuner_search_candidates)});
  t.render(std::cout);

  // Every post-warm-up job must be a tuner cache hit.
  const bool ok = exact == jobs && tuned == jobs &&
                  s.tuner_search_runs == 1 && s.tuner_cache_misses == 1 &&
                  s.tuner_cache_hits == std::int64_t(jobs) - 1;
  std::cout << "tune --serve self-check " << (ok ? "passed" : "FAILED")
            << "\n";
  return ok ? 0 : 1;
}

int cmd_tune(const Args& a) {
  if (a.serve) return cmd_tune_serve(a);

  const bool full = a.full;
  const std::int64_t n2d = a.get("n2d", full ? 4096 : 256);
  const std::int64_t n3d = a.get("n3d", full ? 160 : 48);
  const std::int64_t accept_n = a.get("accept-n", full ? 512 : 64);
  const std::string json_path = a.get_str("json", "");

  HostAutotunerOptions topts;
  topts.cache_path = a.get_str("cache", "");
  topts.probe_cells = a.get("probe-cells", full ? 512 * 1024 : 32 * 1024);
  topts.probe_repeats = full ? 2 : 1;
  HostAutotuner tuner(topts);

  Grid2D<float> init2(n2d, n2d / 2);
  init2.fill_random(31, -1.0f, 1.0f);
  Grid3D<float> init3(n3d, n3d, n3d);
  init3.fill_random(32, -1.0f, 1.0f);

  bool ok = true;
  std::vector<TunePoint> envelope;
  TextTable t({"point", "default Mc/s", "tuned Mc/s", "tuned geom", "gain",
               "probes", "exact"});
  for (const std::string shape : {"star", "box"}) {
    for (int dims : {2, 3}) {
      for (int rad = 1; rad <= 4; ++rad) {
        const TunePoint r = dims == 2
                                ? tune_point(tuner, shape, rad, init2)
                                : tune_point(tuner, shape, rad, init3);
        ok = ok && r.exact;
        t.add_row({r.name, format_fixed(r.default_mcells, 1),
                   format_fixed(r.tuned_mcells, 1), r.tuned_config,
                   "x" + format_fixed(r.gain(), 2),
                   std::to_string(r.candidates_probed),
                   r.exact ? "yes" : "NO"});
        envelope.push_back(r);
      }
    }
  }
  t.render(std::cout);

  // Acceptance point: the PR 7 acceptance workload (3D star r4,
  // parvec 16, partime 4, bsize 144x144) at accept_n^3.
  AcceleratorConfig acfg;
  acfg.dims = 3;
  acfg.radius = 4;
  acfg.parvec = 16;
  acfg.partime = 4;
  acfg.bsize_x = 144;
  acfg.bsize_y = 144;
  const TapSet ataps = tune_taps("star", 3, 4);
  Grid3D<float> ainit(accept_n, accept_n, accept_n);
  ainit.fill_random(33, -1.0f, 1.0f);
  const int aiters = acfg.partime;
  const std::int64_t acells = ainit.nx() * ainit.ny() * ainit.nz();

  const AutotuneOutcome afound =
      tuner.search(ataps, acfg, ainit.nx(), ainit.ny(), ainit.nz());
  Grid3D<float> areference = ainit;
  const double a_default = tune_mcells(
      acells, aiters, tune_time_run(ataps, acfg, areference, aiters));
  double a_tuned = a_default;
  bool a_exact = true;
  if (!tune_same_geometry(afound.config, acfg)) {
    Grid3D<float> alt = ainit;
    a_tuned = tune_mcells(
        acells, aiters, tune_time_run(ataps, afound.config, alt, aiters));
    a_exact = compare_exact(alt, areference).identical();
  }
  ok = ok && a_exact;
  const double a_gain = a_default > 0.0 ? a_tuned / a_default : 0.0;
  std::cout << "acceptance " << acfg.describe() << " grid " << accept_n
            << "^3: default " << format_fixed(a_default, 1)
            << " Mcell/s, tuned " << format_fixed(a_tuned, 1) << " Mcell/s ("
            << tune_geometry(afound.config) << "), gain x"
            << format_fixed(a_gain, 2) << ", exact "
            << (a_exact ? "yes" : "NO") << "\n";

  std::vector<double> gains;
  gains.reserve(envelope.size());
  for (const TunePoint& r : envelope) gains.push_back(r.gain());
  std::sort(gains.begin(), gains.end());
  const double min_gain = gains.empty() ? 0.0 : gains.front();
  const double max_gain = gains.empty() ? 0.0 : gains.back();
  const double med_gain = gains.empty() ? 0.0 : gains[gains.size() / 2];
  std::cout << "envelope gains: min x" << format_fixed(min_gain, 2)
            << ", median x" << format_fixed(med_gain, 2) << ", max x"
            << format_fixed(max_gain, 2) << "\n";

  if (!json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("autotune");
    write_host_profile(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("mode").value(full ? "full" : "reduced");
    w.key("probe_cells").value(topts.probe_cells);
    w.key("envelope").begin_array();
    for (const TunePoint& r : envelope) {
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
    w.key("tuned_config").value(tune_geometry(afound.config));
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
            [](const TunePoint& r) { return r.exact; })));
    w.key("min_gain").value(min_gain);
    w.key("median_gain").value(med_gain);
    w.key("max_gain").value(max_gain);
    w.end_object();
    w.end_object();
    if (!json_is_valid(body.str())) {
      std::cerr << "stencilctl: internal error: tune JSON failed "
                   "validation\n";
      return 1;
    }
    std::ofstream file(json_path);
    if (!file) throw ConfigError("cannot open --json file `" + json_path + "`");
    file << body.str() << "\n";
    std::cout << "autotune scorecard written to " << json_path << "\n";
  }

  if (!ok) {
    std::cerr << "SELF-CHECK FAILED: a tuned geometry diverged from the "
                 "paper-default result\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// stencilctl program: the multi-field program campaigns (docs/PROGRAMS.md).
// Two coupled workloads through the one EngineCluster::submit front door:
// a self-checking 2D FDTD E/H update (three fields, four nodes, mixed
// dirichlet/clamp boundaries) and a 3D damped wave equation (reflective
// walls, a work field assembled by two ordered writers). Self-checks per
// campaign: every field bit-exact vs the multi-field golden model
// (reference_run_program), chunked per-field delivery reassembles exactly,
// a repeated submission routes to the same shard (program-fingerprint
// affinity) and hits the per-node plan cache, every node's blocks run on
// the array kernel (zero fallbacks), and no pool lease leaks.

/// The flagship 2D FDTD-style E/H update: ez carries dirichlet(0) walls
/// (fields vanish at the boundary), the H fields clamp. The two curl
/// halves of the ez update read the H fields written earlier in the same
/// step, so the DAG exercises back-buffer reads and ordered writers.
ProgramSpec make_fdtd2d_program(std::int64_t nx, std::int64_t ny, int steps) {
  ProgramSpec p;
  Grid2D<float> ez(nx, ny);
  ez.fill_random(101, -1.0f, 1.0f);
  Grid2D<float> hx(nx, ny);
  hx.fill_random(102, -0.5f, 0.5f);
  Grid2D<float> hy(nx, ny);
  hy.fill_random(103, -0.5f, 0.5f);
  p.fields = {
      FieldSpec{"ez", std::move(ez), BoundaryCondition::dirichlet(0.0f)},
      FieldSpec{"hx", std::move(hx), BoundaryCondition::clamp()},
      FieldSpec{"hy", std::move(hy), BoundaryCondition::clamp()},
  };
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 64;
  cfg.bsize_y = 1;
  cfg.validate();
  p.nodes = {
      KernelNode{"hx_up", TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, 1, 0, 0.5f}}),
                 cfg, "ez", "hx", CombineOp::add, 1, {}},
      KernelNode{"hy_up", TapSet(2, 1, {Tap{0, 0, 0, 0.5f}, Tap{1, 0, 0, -0.5f}}),
                 cfg, "ez", "hy", CombineOp::add, 1, {}},
      KernelNode{"ez_x", TapSet(2, 1, {Tap{0, 0, 0, 0.5f}, Tap{-1, 0, 0, -0.5f}}),
                 cfg, "hy", "ez", CombineOp::add, 1, {"hy_up"}},
      KernelNode{"ez_y", TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, -1, 0, 0.5f}}),
                 cfg, "hx", "ez", CombineOp::add, 1, {"hx_up", "ez_x"}},
  };
  p.steps = steps;
  p.validate();
  return p;
}

/// The 3D damped wave equation u_next = (2 - gamma)u + c lap(u) -
/// (1 - gamma)u_prev on reflective walls, leapfrogged through a work
/// field: two ordered writers assemble u_next, then identity nodes
/// rotate u -> u_prev and u_next -> u for the next step.
ProgramSpec make_wave3d_program(std::int64_t nx, std::int64_t ny,
                                std::int64_t nz, int steps) {
  const float kC = 0.0625f, kGamma = 0.0625f;
  ProgramSpec p;
  Grid3D<float> u(nx, ny, nz);
  u.fill_random(201, -1.0f, 1.0f);
  Grid3D<float> u_prev = u;  // starts at rest: u(t=0) == u(t=-1)
  p.fields = {
      FieldSpec{"u_prev", std::move(u_prev), BoundaryCondition::clamp()},
      FieldSpec{"u", std::move(u), BoundaryCondition::reflective()},
      FieldSpec{"u_next", Grid3D<float>(nx, ny, nz), BoundaryCondition::clamp(),
                /*work=*/true},
  };
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 32;
  cfg.bsize_y = 32;
  cfg.validate();
  const TapSet wave(3, 1,
                    {Tap{0, 0, 0, 2.0f - kGamma - 6.0f * kC},
                     Tap{-1, 0, 0, kC}, Tap{1, 0, 0, kC}, Tap{0, -1, 0, kC},
                     Tap{0, 1, 0, kC}, Tap{0, 0, -1, kC}, Tap{0, 0, 1, kC}});
  const TapSet center(3, 1, {Tap{0, 0, 0, -(1.0f - kGamma)}});
  const TapSet identity(3, 1, {Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"laplace", wave, cfg, "u", "u_next", CombineOp::assign, 1, {}},
      KernelNode{"damp", center, cfg, "u_prev", "u_next", CombineOp::add, 1,
                 {"laplace"}},
      KernelNode{"rot_prev", identity, cfg, "u", "u_prev", CombineOp::assign, 1,
                 {}},
      KernelNode{"rot_u", identity, cfg, "u_next", "u", CombineOp::assign, 1,
                 {"damp"}},
  };
  p.steps = steps;
  p.validate();
  return p;
}

struct ProgramCampaignRow {
  std::string name;
  int dims = 2;
  std::int64_t nx = 0, ny = 0, nz = 1;
  int fields = 0, nodes = 0, steps = 0;
  std::int64_t nodes_scheduled = 0;
  std::int64_t chunks_delivered = 0;
  bool exact = false;         ///< result fields match the golden model
  bool chunks_exact = false;  ///< reassembled chunk stream matches too
  bool second_run_cache_hit = false;
  bool route_stable = false;  ///< both submissions routed to one shard
  std::int64_t kernel_blocks = 0;    ///< block passes on the array kernel
  std::int64_t fallback_blocks = 0;  ///< block passes on the interpreter
  double wall_seconds = 0.0;
  double mcups = 0.0;  ///< million cell-updates (cells*nodes*steps) per sec
};

/// Runs one campaign; every node's block dispatch reports to `tel`, which
/// must outlive the cluster.
ProgramCampaignRow run_program_campaign(EngineCluster& cluster,
                                        const std::string& name,
                                        ProgramSpec spec_in, Telemetry& tel) {
  for (KernelNode& node : spec_in.nodes) node.config.telemetry = &tel;
  const auto program = std::make_shared<const ProgramSpec>(std::move(spec_in));
  ProgramCampaignRow row;
  row.name = name;
  row.dims = program->dims();
  row.nx = grid_variant_nx(program->fields.front().data);
  row.ny = grid_variant_ny(program->fields.front().data);
  row.nz = grid_variant_nz(program->fields.front().data);
  row.fields = static_cast<int>(program->fields.size());
  row.nodes = static_cast<int>(program->nodes.size());
  row.steps = program->steps;

  const auto want = reference_run_program(*program);

  // First submission: chunked per-field delivery into a reassembly map.
  std::vector<std::pair<std::string, std::vector<float>>> assembled;
  JobSpec spec(program);
  spec.tenant = "program";
  spec.label = name;
  spec.chunk_values = 1 << 14;
  spec.sink = [&](const ResultChunk& c) {
    if (assembled.empty() || assembled.back().first != c.field) {
      assembled.emplace_back(c.field, std::vector<float>());
    }
    assembled.back().second.insert(assembled.back().second.end(), c.data,
                                   c.data + c.values);
  };
  const int shard_first = cluster.route_shard(spec);
  Stopwatch clock;
  JobHandle h1 = cluster.submit(std::move(spec));
  JobResult& r1 = h1.wait();
  row.wall_seconds = clock.seconds();
  row.nodes_scheduled = r1.program_nodes_executed;
  row.chunks_delivered = r1.chunks_delivered;
  const double updates = double(grid_variant_cells(program->fields[0].data)) *
                         double(row.nodes) * double(row.steps);
  row.mcups = updates / 1e6 / std::max(row.wall_seconds, 1e-9);

  // Exactness vs the golden model: the result fields and the reassembled
  // chunk stream (non-work fields, declaration order) must both match.
  row.exact = r1.fields.size() == want.size();
  for (std::size_t i = 0; row.exact && i < want.size(); ++i) {
    row.exact = r1.fields[i].first == want[i].first &&
                std::equal(grid_variant_data(r1.fields[i].second),
                           grid_variant_data(r1.fields[i].second) +
                               grid_variant_cells(r1.fields[i].second),
                           grid_variant_data(want[i].second));
  }
  row.chunks_exact = true;
  std::size_t next = 0;
  for (const auto& w : want) {
    const FieldSpec* f = program->find_field(w.first);
    if (f->work) continue;  // work fields are never streamed
    if (next >= assembled.size() || assembled[next].first != w.first ||
        std::int64_t(assembled[next].second.size()) !=
            grid_variant_cells(w.second) ||
        !std::equal(assembled[next].second.begin(),
                    assembled[next].second.end(),
                    grid_variant_data(w.second))) {
      row.chunks_exact = false;
      break;
    }
    ++next;
  }
  row.chunks_exact = row.chunks_exact && next == assembled.size();

  // Second submission: program-fingerprint affinity routes it to the same
  // shard, where every node's plan is already cached.
  JobSpec again(program);
  again.tenant = "program";
  again.label = name + "#2";
  row.route_stable = cluster.route_shard(again) == shard_first;
  JobHandle h2 = cluster.submit(std::move(again));
  JobResult& r2 = h2.wait();
  row.second_run_cache_hit = r2.plan_cache_hit;
  for (std::size_t i = 0; row.exact && i < want.size(); ++i) {
    row.exact = std::equal(grid_variant_data(r2.fields[i].second),
                           grid_variant_data(r2.fields[i].second) +
                               grid_variant_cells(r2.fields[i].second),
                           grid_variant_data(want[i].second));
  }
  row.kernel_blocks =
      tel.metrics().counter("kernels.dispatch_specialized").value();
  row.fallback_blocks =
      tel.metrics().counter("kernels.dispatch_fallback").value();
  return row;
}

int cmd_program(const Args& a) {
  const std::int64_t n2d = a.get("n2d", 160);
  const std::int64_t n3d = a.get("n3d", 40);
  const int steps = static_cast<int>(a.get("steps", 32));
  const int steps3d = static_cast<int>(a.get("steps3d", (steps + 1) / 2));
  ClusterOptions copts;
  copts.shards = static_cast<int>(a.get("shards", 2));
  copts.engine.workers = static_cast<int>(a.get("workers", 4));
  Telemetry fdtd_tel, wave_tel;  // per-campaign dispatch counters
  EngineCluster cluster(copts);

  std::vector<ProgramCampaignRow> rows;
  rows.push_back(run_program_campaign(
      cluster, "fdtd2d", make_fdtd2d_program(n2d, (n2d * 3) / 4, steps),
      fdtd_tel));
  rows.push_back(run_program_campaign(
      cluster, "wave3d",
      make_wave3d_program(n3d, n3d, std::max<std::int64_t>(n3d / 2, 8),
                          steps3d),
      wave_tel));

  cluster.wait_idle();
  std::int64_t leaked = 0;
  for (int k = 0; k < cluster.shards(); ++k) {
    leaked += cluster.shard(k).buffer_pool().outstanding();
  }

  TextTable t({"campaign", "grid", "fields", "nodes", "steps", "chunks",
               "exact", "affinity", "kernel blk", "fallback blk", "Mcup/s"});
  bool ok = leaked == 0;
  for (const ProgramCampaignRow& r : rows) {
    // Every node must run on the array kernel: a fallback is a dispatch
    // regression, whatever the result.
    const bool row_ok = r.exact && r.chunks_exact && r.second_run_cache_hit &&
                        r.route_stable && r.kernel_blocks > 0 &&
                        r.fallback_blocks == 0 &&
                        r.nodes_scheduled ==
                            std::int64_t(r.nodes) * std::int64_t(r.steps);
    ok = ok && row_ok;
    std::string grid = std::to_string(r.nx) + "x" + std::to_string(r.ny);
    if (r.dims == 3) grid += "x" + std::to_string(r.nz);
    t.add_row({r.name, grid, std::to_string(r.fields),
               std::to_string(r.nodes), std::to_string(r.steps),
               std::to_string(r.chunks_delivered),
               r.exact && r.chunks_exact ? "yes" : "NO",
               r.second_run_cache_hit && r.route_stable ? "yes" : "NO",
               std::to_string(r.kernel_blocks),
               std::to_string(r.fallback_blocks), format_fixed(r.mcups, 1)});
  }
  t.render(std::cout);
  std::cout << (leaked == 0 ? "zero leaked pool leases\n"
                            : "LEAKED POOL LEASES\n");

  const std::string json_path = a.get_str("json", "");
  if (!json_path.empty()) {
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    w.key("schema_version").value(2);
    w.key("bench").value("program_campaign");
    write_host_profile(w);
    w.key("paper").value(
        "High-Performance High-Order Stencil Computation on FPGAs Using "
        "OpenCL");
    w.key("cluster").begin_object();
    w.key("shards").value(copts.shards);
    w.key("workers").value(copts.engine.workers);
    w.end_object();
    w.key("campaigns").begin_array();
    for (const ProgramCampaignRow& r : rows) {
      w.begin_object();
      w.key("name").value(r.name);
      w.key("dims").value(r.dims);
      w.key("nx").value(r.nx);
      w.key("ny").value(r.ny);
      w.key("nz").value(r.nz);
      w.key("fields").value(r.fields);
      w.key("nodes").value(r.nodes);
      w.key("steps").value(r.steps);
      w.key("nodes_scheduled").value(r.nodes_scheduled);
      w.key("chunks_delivered").value(r.chunks_delivered);
      w.key("exact").value(r.exact);
      w.key("chunks_exact").value(r.chunks_exact);
      w.key("second_run_cache_hit").value(r.second_run_cache_hit);
      w.key("route_stable").value(r.route_stable);
      w.key("kernel_blocks").value(r.kernel_blocks);
      w.key("fallback_blocks").value(r.fallback_blocks);
      w.key("wall_seconds").value(r.wall_seconds);
      w.key("mcups").value(r.mcups);
      w.end_object();
    }
    w.end_array();
    w.key("summary").begin_object();
    w.key("campaigns").value(std::int64_t(rows.size()));
    w.key("all_exact").value(ok);
    w.key("leaked_leases").value(leaked);
    w.end_object();
    w.end_object();
    if (!json_is_valid(body.str())) {
      std::cerr << "stencilctl: internal error: program JSON failed "
                   "validation\n";
      return 1;
    }
    std::ofstream file(json_path);
    if (!file) throw ConfigError("cannot open --json file `" + json_path + "`");
    file << body.str() << "\n";
    std::cout << rows.size() << " campaign records written to " << json_path
              << "\n";
  }

  std::cout << "program campaigns " << (ok ? "passed" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

int usage() {
  std::cerr
      << "usage: stencilctl "
         "<devices|explore|tune|model|codegen|simulate|blockpar|faults|"
         "metrics|trace|engine|serve|chaos|program> [flags]\n"
         "  common flags: --dims 2|3 --radius R --bsize-x B --bsize-y B\n"
         "                --parvec V --partime T --device NAME\n"
         "                --nx N --ny N --nz N --iters I --top K --box\n"
         "  simulate flags: --backend automatic|sync_sim|concurrent|\n"
         "                  block_parallel|resilient --workers W\n"
         "  blockpar flags: --workers LIST (e.g. 1,2,4,8)\n"
         "                  --generic (force the interpreter path)\n"
         "                  --json BENCH_PR5.json\n"
         "  faults flags: --plan SPEC (else $FPGASTENCIL_FAULT_PLAN, else a\n"
         "                demo campaign) --boards B\n"
         "  metrics flags: --format table|json|csv --out FILE --depth D\n"
         "  trace flags:   --out trace.json --depth D\n"
         "  engine flags:  --jobs N --workers W --iters I --queue Q\n"
         "                 --json BENCH_PR3.json\n"
         "  serve flags:   --jobs N --shards S --workers W --iters I\n"
         "                 --seed S --window W --json BENCH_PR8.json\n"
         "  chaos flags:   --jobs N --workers W --seed S\n"
         "                 --json BENCH_PR6.json\n"
         "  program flags: --n2d N --n3d N --steps S --steps3d S\n"
         "                 --shards S --workers W --json BENCH_PR10.json\n"
         "  explore flags: --dims D --radius R --device NAME --top K\n"
         "  tune flags:    --full --json BENCH_PR9.json --cache FILE\n"
         "                 --probe-cells C --n2d N --n3d N --accept-n N\n"
         "                 --serve (engine telemetry self-check)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args a = parse_args(argc, argv, 2);
    if (cmd == "devices") return cmd_devices();
    if (cmd == "explore") return cmd_explore(a);
    if (cmd == "tune") return cmd_tune(a);
    if (cmd == "model") return cmd_model(a);
    if (cmd == "codegen") return cmd_codegen(a);
    if (cmd == "simulate") return cmd_simulate(a);
    if (cmd == "blockpar") return cmd_blockpar(a);
    if (cmd == "faults") return cmd_faults(a);
    if (cmd == "metrics") return cmd_metrics(a);
    if (cmd == "trace") return cmd_trace(a);
    if (cmd == "engine") return cmd_engine(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "chaos") return cmd_chaos(a);
    if (cmd == "program") return cmd_program(a);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "stencilctl: " << e.what() << "\n";
    return 2;
  }
}
