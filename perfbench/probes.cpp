// Per-layer probes of the traced run. Each probe calls one layer's public
// entry point directly on the workload's own stencil shapes and records
// a span per call; the metrics are derived from those calls' timings and
// the counters the library exports. Nothing here is timed in the
// end-to-end runs.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/buffer_pool.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/host_profile.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/plan_cache.hpp"
#include "program/program_executor.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using namespace fpga_stencil;

namespace {

/// Minimum measured time per probed shape, so short runs (single program
/// nodes) are repeated enough to time.
constexpr std::int64_t kMinProbeNs = 100'000'000;

int host_threads() {
  return int(std::max(1u, std::thread::hardware_concurrency()));
}

/// Wall nanoseconds of fn(t) run on `threads` threads at once.
template <typename F>
std::int64_t parallel_ns(int threads, F fn) {
  std::vector<std::thread> pool;
  const std::int64_t t0 = now_ns();
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
  return now_ns() - t0;
}

// Four-lane float vectors in the baseline x86-64 ISA (SSE2): the ISA the
// library's kernels are built for (no FMA, so mul and add stay separate).
typedef float v4f __attribute__((vector_size(16)));

/// 12 independent mul+add chains, 96 flops per iteration. The chains
/// converge to 1, so no value overflows or goes denormal.
float muladd_chains(std::int64_t iters) {
  const v4f m = {0.999999f, 0.999999f, 0.999999f, 0.999999f};
  const v4f c = {1e-6f, 1e-6f, 1e-6f, 1e-6f};
  v4f a[12];
  for (int k = 0; k < 12; ++k) {
    const float s = 1.0f + 0.01f * float(k);
    a[k] = v4f{s, s + 0.001f, s + 0.002f, s + 0.003f};
  }
  v4f a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4], a5 = a[5];
  v4f a6 = a[6], a7 = a[7], a8 = a[8], a9 = a[9], a10 = a[10], a11 = a[11];
  for (std::int64_t i = 0; i < iters; ++i) {
    a0 = a0 * m + c;
    a1 = a1 * m + c;
    a2 = a2 * m + c;
    a3 = a3 * m + c;
    a4 = a4 * m + c;
    a5 = a5 * m + c;
    a6 = a6 * m + c;
    a7 = a7 * m + c;
    a8 = a8 * m + c;
    a9 = a9 * m + c;
    a10 = a10 * m + c;
    a11 = a11 * m + c;
  }
  const v4f s = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11;
  return s[0] + s[1] + s[2] + s[3];
}

/// One stencil application of the workload, as the layers see it.
struct ProbeNode {
  TapSet taps;
  AcceleratorConfig config;
  const GridVariant* grid = nullptr;
  int iterations = 1;
  /// Applications per job (program steps); weights the node's share.
  int per_job = 1;
  [[nodiscard]] double job_work() const {
    return double(grid_variant_cells(*grid)) * iterations * per_job;
  }
};

std::vector<ProbeNode> probe_nodes(const Workload& w) {
  std::vector<ProbeNode> out;
  for (const Kind& k : w.kinds) {
    if (!k.program) {
      out.push_back({k.taps, k.config, &k.input, k.iterations, 1});
      continue;
    }
    const ProgramSpec& p = *k.program;
    for (const std::size_t idx : p.schedule()) {
      const KernelNode& node = p.nodes[idx];
      out.push_back({p.stamped_taps(idx), node.config,
                     &p.find_field(node.reads)->data, node.iterations,
                     p.steps});
    }
  }
  return out;
}

/// The kernel layer: stream_block through the single-threaded
/// StencilAccelerator::run (specialized kernel or interpreter fallback).
void kernel_probe(const std::vector<ProbeNode>& nodes, SpanLog& log,
                  MetricMap& out) {
  double work = 0, time_per_job = 0, flops = 0, bytes = 0, streamed = 0,
         written = 0;
  for (const ProbeNode& n : nodes) {
    StencilAccelerator acc(n.taps, n.config);
    std::vector<float> scratch;
    std::int64_t ns = 0, reps = 0;
    RunStats stats;
    while (ns < kMinProbeNs) {
      GridVariant g = *n.grid;
      const std::int64_t t0 = now_ns();
      stats = std::visit(
          [&](auto& grid) { return acc.run(grid, n.iterations, &scratch); },
          g);
      const std::int64_t dt = now_ns() - t0;
      const double cells = double(grid_variant_cells(g)) * n.iterations;
      log.add({"kernel.stream", "", -1, 0, t0, dt, cells});
      ns += dt;
      ++reps;
    }
    const double share = n.job_work();
    const double cells = double(grid_variant_cells(*n.grid)) * n.iterations;
    work += share;
    time_per_job += double(ns) / double(reps) * double(n.per_job);
    flops += share * double(n.taps.flops_per_cell());
    bytes += share * 4.0 * double(stats.cells_streamed + stats.cells_written) /
             cells;
    streamed += double(stats.cells_streamed) * n.per_job;
    written += double(stats.cells_written) * n.per_job;
  }
  out["kernel.mcells_per_s"] = work / time_per_job * 1e3;
  out["kernel.flops_per_update"] = flops / work;
  out["kernel.bytes_per_update_computed"] = bytes / work;
  out["executor.redundancy"] = streamed / written;
}

/// The executor layer: run_block_parallel at 1 and 4 workers on the same
/// grids, with telemetry attached to read the worker busy time.
void executor_probe(const std::vector<ProbeNode>& nodes, SpanLog& log,
                    MetricMap& out) {
  const int wide = std::min(4, host_threads());
  Telemetry tel;
  BufferPool pool;
  double t1_per_job = 0, tw_per_job = 0, busy_ns = 0, capacity_ns = 0,
         blocks = 0, wide_ns = 0;
  for (const ProbeNode& n : nodes) {
    for (const int workers : {1, wide}) {
      RunOptions opts;
      opts.workers = workers;
      opts.telemetry = &tel;
      opts.pool = &pool;
      std::vector<float> scratch;
      opts.scratch = &scratch;
      std::int64_t ns = 0, reps = 0;
      while (ns < kMinProbeNs) {
        GridVariant g = *n.grid;
        const Histogram& busy = tel.metrics().histogram(
            "block_parallel.worker_busy_ns", default_latency_bounds_ns());
        const std::int64_t busy_before = busy.sum();
        const std::int64_t t0 = now_ns();
        const RunStats stats = std::visit(
            [&](auto& grid) {
              return run_block_parallel(n.taps, n.config, grid, n.iterations,
                                        opts);
            },
            g);
        const std::int64_t dt = now_ns() - t0;
        log.add({workers == 1 ? "executor.block_parallel_1w"
                              : "executor.block_parallel_4w",
                 "", -1, 0, t0, dt, double(stats.block_passes)});
        ns += dt;
        ++reps;
        if (workers == wide) {
          const std::int64_t spawned =
              tel.metrics().gauge("block_parallel.workers").value();
          busy_ns += double(busy.sum() - busy_before);
          capacity_ns += double(spawned) * double(dt);
          blocks += double(stats.block_passes);
          wide_ns += double(dt);
        }
      }
      const double per_job = double(ns) / double(reps) * double(n.per_job);
      (workers == 1 ? t1_per_job : tw_per_job) += per_job;
    }
  }
  out["executor.speedup_4w"] = t1_per_job / tw_per_job;
  out["executor.worker_busy_frac"] = busy_ns / capacity_ns;
  out["executor.blocks_per_s"] = blocks / wide_ns * 1e9;
}

/// The program layer: ProgramExecutor::run on each job kind as a program
/// (single-stencil kinds through the one-node adapter) against the sum of
/// run_planned over its nodes and steps on the same fields.
void program_probe(const Workload& w, SpanLog& log, MetricMap& out) {
  PlanCache plans;
  BufferPool pool;
  Telemetry tel;
  ProgramExecutor::Services services;
  services.plans = &plans;
  services.pool = &pool;
  services.telemetry = &tel;
  services.workers = w.job_workers;
  ProgramExecutor exec(services);
  double run_ms = 0, stream_ms = 0;
  for (const Kind& k : w.kinds) {
    const ProgramSpec program =
        k.program ? *k.program
                  : single_stencil_program(k.taps, k.config, k.input,
                                           k.iterations);
    (void)exec.run(program, nullptr, 0);  // warm the plan cache and pool
    // Sum of run_planned over every node and step, on copies of the
    // fields the nodes read.
    const auto node_stream_ns = [&] {
      std::int64_t total = 0;
      for (int step = 0; step < program.steps; ++step) {
        for (const std::size_t idx : program.schedule()) {
          const KernelNode& node = program.nodes[idx];
          const TapSet taps = program.stamped_taps(idx);
          GridVariant g = program.find_field(node.reads)->data;
          const auto plan = exec.resolve_plan(
              taps, node.config, grid_variant_nx(g), grid_variant_ny(g),
              grid_variant_nz(g), nullptr, nullptr);
          const ExecutionBackend backend = exec.route(*plan);
          const std::int64_t t0 = now_ns();
          std::visit(
              [&](auto& grid) {
                (void)exec.run_planned(taps, plan->config, backend, grid,
                                       node.iterations, nullptr);
              },
              g);
          const std::int64_t dt = now_ns() - t0;
          log.add({"program.node_stream", "program.run", -1, 0, t0, dt,
                   double(grid_variant_cells(g)) * node.iterations});
          total += dt;
        }
      }
      return total;
    };
    // Paired repetitions, so drift of the host hits both sides alike.
    std::vector<double> runs, streams;
    std::int64_t spent = 0;
    while (runs.size() < 3 || spent < kMinProbeNs) {
      const std::int64_t t0 = now_ns();
      (void)exec.run(program, nullptr, 0);
      const std::int64_t dt = now_ns() - t0;
      log.add({"program.run", "", -1, 0, t0, dt, k.updates});
      runs.push_back(double(dt) / 1e6);
      streams.push_back(double(node_stream_ns()) / 1e6);
      spent += dt;
    }
    run_ms += median(runs);
    stream_ms += median(streams);
  }
  out["program.run_ms"] = run_ms;
  out["program.node_stream_ms"] = stream_ms;
  out["program.overhead_share"] = 1.0 - stream_ms / run_ms;
}

/// A cold PlanCache::lookup_or_build per distinct plan of the workload.
void plan_build_probe(const std::vector<ProbeNode>& nodes, SpanLog& log,
                      MetricMap& out) {
  std::vector<double> us;
  for (const ProbeNode& n : nodes) {
    for (int rep = 0; rep < 5; ++rep) {
      PlanCache cold;
      const std::int64_t t0 = now_ns();
      (void)cold.lookup_or_build(n.taps, n.config, grid_variant_nx(*n.grid),
                                 grid_variant_ny(*n.grid),
                                 grid_variant_nz(*n.grid));
      const std::int64_t dt = now_ns() - t0;
      log.add({"engine.plan_build", "", -1, 0, t0, dt, 1.0});
      us.push_back(double(dt) / 1e3);
    }
  }
  out["engine.plan_build_us"] = median(us);
}

}  // namespace

HostRoofline measure_host_roofline(bool smoke, SpanLog& log) {
  HostRoofline r;
  r.threads = host_threads();
  r.llc_bytes = host_profile().llc_bytes;
  // Each copy array is at least four times the last-level cache, so the
  // copy streams from memory rather than from cache.
  const std::int64_t floor_bytes = std::int64_t(1) << 30;
  std::int64_t bytes = smoke ? (std::int64_t(64) << 20)
                             : std::max(4 * r.llc_bytes, floor_bytes);
  const std::int64_t align = std::int64_t(4096) * r.threads;
  bytes = (bytes + align - 1) / align * align;
  r.array_bytes = bytes;
  {
    std::vector<char> src(std::size_t(bytes), 1), dst(std::size_t(bytes), 0);
    const std::int64_t slice = bytes / r.threads;
    std::vector<double> gbps;
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      const std::int64_t ns = parallel_ns(r.threads, [&](int t) {
        std::memcpy(dst.data() + t * slice, src.data() + t * slice,
                    std::size_t(slice));
      });
      log.add({"host.copy", "", -1, 0, t0, ns, 2.0 * double(bytes)});
      gbps.push_back(2.0 * double(bytes) / double(ns));
    }
    r.copy_gbps = median(gbps);
  }
  const std::int64_t iters = smoke ? 2'000'000 : 20'000'000;
  std::vector<double> gflops;
  std::vector<float> sink(std::size_t(r.threads), 0.0f);
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    const std::int64_t ns = parallel_ns(r.threads, [&](int t) {
      sink[std::size_t(t)] = muladd_chains(iters);
    });
    const double flops = 96.0 * double(iters) * r.threads;
    log.add({"host.muladd", "", -1, 0, t0, ns, flops});
    gflops.push_back(flops / double(ns));
  }
  r.muladd_gflops = median(gflops);
  float keep = 0.0f;
  for (const float s : sink) keep += s;
  if (!(keep > 0.0f)) throw std::runtime_error("mul+add probe diverged");
  return r;
}

void run_layer_probes(const Workload& w, SpanLog& log, MetricMap& out) {
  const std::vector<ProbeNode> nodes = probe_nodes(w);
  kernel_probe(nodes, log, out);
  executor_probe(nodes, log, out);
  program_probe(w, log, out);
  plan_build_probe(nodes, log, out);
}

}  // namespace perfbench
