// The repository benchmark: drives EngineCluster::submit() ->
// JobHandle::wait() on one named workload and checks every result bit for
// bit against the golden models. See README.md for the workloads, the
// metrics and the layer each metric belongs to.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--smoke] [--corrupt-expectation]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Exit code 0 only when every job was
// correct and no buffer-pool lease leaked; 2 on a usage error (no JSON).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <span>
#include <sstream>

#include "bench.hpp"
#include "core/host_profile.hpp"
#include "engine/engine_cluster.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using namespace fpga_stencil;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks both directions).
constexpr MetricDef kEndToEnd[] = {
    {"mcups", "Mcup/s"}, {"jobs_per_s", "1/s"},   {"job_p50_ms", "ms"},
    {"setup_s", "s"},    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"kernel.mcells_per_s", "Mcell/s"},
    {"kernel.fallback_share", "ratio"},
    {"kernel.flops_per_update", "flop"},
    {"kernel.bytes_per_update_computed", "B"},
    {"kernel.roofline_frac", "ratio"},
    {"executor.redundancy", "ratio"},
    {"executor.speedup_4w", "x"},
    {"executor.worker_busy_frac", "ratio"},
    {"executor.blocks_per_s", "1/s"},
    {"program.run_ms", "ms"},
    {"program.node_stream_ms", "ms"},
    {"program.overhead_share", "ratio"},
    {"engine.queue_ms_p50", "ms"},
    {"engine.queue_ms_p99", "ms"},
    {"engine.run_ms_p50", "ms"},
    {"engine.overhead_ms_p50", "ms"},
    {"engine.plan_hit_rate", "ratio"},
    {"engine.plan_build_us", "us"},
    {"engine.deliver_ms_p50", "ms"},
    {"engine.pool_allocs_per_job", "count"},
    {"cluster.submit_us_p50", "us"},
    {"cluster.submit_us_p99", "us"},
    {"host.copy_gbps", "GB/s"},
    {"host.muladd_gflops", "GFLOP/s"},
    {"trace.mcups", "Mcup/s"},
    {"trace.overhead_frac", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
  bool corrupt = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--corrupt-expectation") {
      o.corrupt = true;
    } else {
      throw std::invalid_argument("unknown argument `" + a + "`");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "required: --workload, --seed, --seconds, --trace");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---- one job in flight --------------------------------------------------

/// Per-in-flight-job state. The chunk sink writes here on the engine's
/// worker thread; the generator reads it only after the job's terminal
/// notification (ordered through Completions' mutex).
struct Slot {
  const Kind* kind = nullptr;
  std::vector<float> stream;  ///< reassembled chunk stream
  std::size_t filled = 0;
  std::int64_t chunks = 0;
  bool stream_ok = true;
  bool last_seen = false;
  std::int64_t first_chunk_ns = -1, last_chunk_ns = -1;
  std::int64_t submit_ns = 0, submitted_ns = 0;
  std::int64_t job = -1;
  JobHandle handle;
};

/// Terminal notifications (JobSpec::on_terminal), in completion order.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> done;
};

/// A single-stencil job on a copy of the kind's input, or the kind's
/// program (traced variant when `traced`). `warm` selects the set-up
/// warm-up shape: one iteration / one step.
JobSpec base_spec(const Kind& k, const Workload& w, bool traced_hook,
                  Telemetry* tel, bool warm) {
  if (k.program) {
    JobSpec spec(warm ? k.program_warm
                      : (traced_hook ? k.program_traced : k.program));
    spec.workers = w.job_workers;
    return spec;
  }
  AcceleratorConfig cfg = k.config;
  if (traced_hook) cfg.telemetry = tel;
  const int iters = warm ? 1 : k.iterations;
  JobSpec spec = std::visit(
      [&](const auto& g) { return JobSpec(k.taps, cfg, g, iters); }, k.input);
  spec.workers = w.job_workers;
  return spec;
}

bool same_bits(const GridVariant& a, const GridVariant& b) {
  return a.index() == b.index() &&
         grid_variant_nx(a) == grid_variant_nx(b) &&
         grid_variant_ny(a) == grid_variant_ny(b) &&
         grid_variant_nz(a) == grid_variant_nz(b) &&
         std::memcmp(grid_variant_data(a), grid_variant_data(b),
                     std::size_t(grid_variant_cells(a)) * sizeof(float)) == 0;
}

/// Bit-exact check of one result (and its reassembled chunk stream)
/// against the golden model.
bool verify(const Kind& k, const JobResult& r, const Slot& s) {
  if (k.program) {
    if (r.fields.size() != k.expected.size()) return false;
    for (std::size_t i = 0; i < k.expected.size(); ++i) {
      if (r.fields[i].first != k.expected[i].first ||
          !same_bits(r.fields[i].second, k.expected[i].second)) {
        return false;
      }
    }
  } else if (!same_bits(r.grid, k.expected.front().second)) {
    return false;
  }
  if (!s.stream_ok || !s.last_seen ||
      std::int64_t(s.filled) != k.stream_values) {
    return false;
  }
  std::size_t at = 0;
  for (std::size_t i = 0; i < k.expected.size(); ++i) {
    if (!k.streamed[i]) continue;
    const GridVariant& g = k.expected[i].second;
    const std::size_t n = std::size_t(grid_variant_cells(g));
    if (std::memcmp(s.stream.data() + at, grid_variant_data(g),
                    n * sizeof(float)) != 0) {
      return false;
    }
    at += n;
  }
  return true;
}

struct Sample {
  double latency_ms = 0, queue_ms = 0, run_ms = 0;
  std::size_t kind = 0;  ///< index into Workload::kinds
};

struct Phase {
  std::vector<Sample> samples;  ///< correct jobs only
  double busy_s = 0.0;  ///< time with at least one job in flight
  double updates = 0.0;
  std::int64_t attempted = 0, failed = 0;

  void merge(const Phase& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    busy_s += o.busy_s;
    updates += o.updates;
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// The closed loop: keeps one job per slot in flight from one generator
/// thread, submitting the workload's kinds in turn (`next_kind`), until
/// `seconds` have passed, then drains. Latency runs from the
/// submit() call until wait() returns (the sink has seen the last chunk
/// by then); input copies and verification are outside it.
Phase run_phase(EngineCluster& cluster, const Workload& w,
                std::size_t& next_kind, std::vector<Slot>& slots,
                Completions& comp, double seconds, Telemetry* tel,
                SpanLog& log, std::int64_t& next_job) {
  Phase ph;
  std::vector<int> free_slots;
  for (int i = int(slots.size()) - 1; i >= 0; --i) free_slots.push_back(i);
  int inflight = 0;
  std::int64_t busy_start = 0, busy_ns = 0;
  const std::int64_t stop = now_ns() + std::int64_t(seconds * 1e9);
  for (;;) {
    while (!free_slots.empty() && now_ns() < stop) {
      const int idx = free_slots.back();
      free_slots.pop_back();
      Slot& s = slots[std::size_t(idx)];
      s.kind = &w.kinds[next_kind++ % w.kinds.size()];
      s.filled = 0;
      s.chunks = 0;
      s.stream_ok = true;
      s.last_seen = false;
      s.first_chunk_ns = s.last_chunk_ns = -1;
      JobSpec spec = base_spec(*s.kind, w, log.enabled(), tel, false);
      s.stream.resize(std::size_t(s.kind->stream_values));
      spec.sink = [&s](const ResultChunk& c) {
        if (s.first_chunk_ns < 0) s.first_chunk_ns = now_ns();
        if (c.index != s.chunks || s.last_seen ||
            s.filled + c.values > s.stream.size()) {
          s.stream_ok = false;
        } else {
          std::memcpy(s.stream.data() + s.filled, c.data,
                      c.values * sizeof(float));
          s.filled += c.values;
        }
        ++s.chunks;
        s.last_seen = s.last_seen || c.last;
        s.last_chunk_ns = now_ns();
      };
      spec.on_terminal = [&comp, idx](JobStatus) {
        std::lock_guard<std::mutex> lock(comp.mu);
        comp.done.push_back(idx);
        comp.cv.notify_one();
      };
      ++ph.attempted;
      const std::int64_t t0 = now_ns();
      if (inflight == 0) busy_start = t0;
      try {
        s.handle = cluster.submit(std::move(spec));
      } catch (const std::exception& e) {
        std::cerr << "perfbench: submit rejected: " << e.what() << "\n";
        ++ph.failed;
        if (inflight == 0) busy_ns += now_ns() - t0;
        free_slots.push_back(idx);
        continue;
      }
      s.submit_ns = t0;
      s.submitted_ns = now_ns();
      s.job = next_job++;
      ++inflight;
    }
    if (inflight == 0) break;

    int idx = -1;
    {
      std::unique_lock<std::mutex> lock(comp.mu);
      if (!comp.cv.wait_for(lock, std::chrono::seconds(120),
                            [&] { return !comp.done.empty(); })) {
        throw std::runtime_error("a job did not finish within 120 s");
      }
      idx = comp.done.front();
      comp.done.pop_front();
    }
    Slot& s = slots[std::size_t(idx)];
    const JobResult* r = nullptr;
    try {
      r = &s.handle.wait();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: job " << s.kind->name << " failed: " << e.what()
                << "\n";
    }
    const std::int64_t end = now_ns();
    if (--inflight == 0) busy_ns += end - busy_start;
    if (r != nullptr && verify(*s.kind, *r, s)) {
      Sample smp;
      smp.latency_ms = double(end - s.submit_ns) / 1e6;
      smp.queue_ms = double(r->queue_ns) / 1e6;
      smp.run_ms = double(r->run_ns) / 1e6;
      smp.kind = std::size_t(s.kind - w.kinds.data());
      ph.samples.push_back(smp);
      ph.updates += s.kind->updates;
      if (log.enabled()) {
        const int lane = idx + 1;
        log.add({"job", "", s.job, lane, s.submit_ns, end - s.submit_ns,
                 s.kind->updates});
        log.add({"cluster.submit", "job", s.job, lane, s.submit_ns,
                 s.submitted_ns - s.submit_ns, 1.0});
        log.add({"engine.queue", "job", s.job, lane, s.submitted_ns,
                 r->queue_ns, 1.0});
        log.add({"engine.run", "job", s.job, lane,
                 s.submitted_ns + r->queue_ns, r->run_ns, s.kind->updates});
        log.add({"engine.deliver", "engine.run", s.job, lane,
                 s.first_chunk_ns, s.last_chunk_ns - s.first_chunk_ns,
                 double(s.filled)});
      }
    } else {
      if (r != nullptr) {
        std::cerr << "perfbench: job " << s.kind->name
                  << " is not bit-exact with the golden model\n";
      }
      ++ph.failed;
    }
    s.handle = JobHandle();
    free_slots.push_back(idx);
  }
  ph.busy_s = double(busy_ns) / 1e9;
  return ph;
}

/// Cluster construction plus one warm-up submission per job kind (fills
/// the plan cache and the buffer pool); returns the elapsed seconds.
double set_up(std::unique_ptr<EngineCluster>& cluster, const Workload& w,
              std::int64_t& attempted, std::int64_t& failed) {
  const std::int64_t t0 = now_ns();
  // One client with one job in flight: one shard with one engine worker;
  // the job's block-parallel workers do the compute.
  ClusterOptions opts;
  opts.shards = 1;
  opts.engine.workers = 1;
  cluster = std::make_unique<EngineCluster>(opts);
  for (const Kind& k : w.kinds) {
    ++attempted;
    try {
      JobHandle h = cluster->submit(base_spec(k, w, false, nullptr, true));
      (void)h.wait();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: warm-up " << k.name << " failed: " << e.what()
                << "\n";
      ++failed;
    }
  }
  return double(now_ns() - t0) / 1e9;
}

std::vector<EngineStats> shard_stats(EngineCluster& c) {
  std::vector<EngineStats> out;
  for (int k = 0; k < c.shards(); ++k) out.push_back(c.shard(k).stats());
  return out;
}

/// Engine counters over the traced slices, summed across clusters.
struct EngineDeltas {
  double hits = 0, misses = 0, allocs = 0;

  void add(const std::vector<EngineStats>& before,
           const std::vector<EngineStats>& after) {
    for (std::size_t k = 0; k < after.size(); ++k) {
      hits += double(after[k].plan_cache_hits - before[k].plan_cache_hits);
      misses +=
          double(after[k].plan_cache_misses - before[k].plan_cache_misses);
      allocs += double(after[k].pool_allocations - before[k].pool_allocations);
    }
  }
};

/// Median latency of each job kind, combined by geometric mean (one
/// kind: its plain median). The median of the pooled jobs of two kinds
/// would land between the two and jump with small shifts between them.
double job_p50_ms(const Phase& p, std::size_t kinds) {
  std::vector<std::vector<double>> by_kind(kinds);
  for (const Sample& s : p.samples) by_kind[s.kind].push_back(s.latency_ms);
  double log_sum = 0.0;
  int n = 0;
  for (const std::vector<double>& lat : by_kind) {
    if (lat.empty()) continue;
    log_sum += std::log(median(lat));
    ++n;
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int run(const Options& opt) {
  SpanLog log(opt.trace);
  MetricMap metrics;
  HostRoofline roof;
  if (opt.trace) {
    // First, while the process holds nothing else: the copy arrays are
    // several times the last-level cache.
    roof = measure_host_roofline(opt.smoke, log);
    std::cerr << "host " << host_profile().fingerprint() << ": copy "
              << roof.copy_gbps << " GB/s (2 x " << (roof.array_bytes >> 20)
              << " MiB arrays, LLC " << (roof.llc_bytes >> 20) << " MiB, "
              << roof.threads << " threads), mul+add " << roof.muladd_gflops
              << " GFLOP/s\n";
  }

  const std::int64_t t0 = now_ns();
  Workload w = make_workload(opt.workload, opt.seed, opt.smoke);
  std::cerr << opt.workload << ": inputs and golden models in "
            << double(now_ns() - t0) / 1e9 << " s\n";
  if (opt.corrupt) {
    // Self-test: one flipped bit in the first kind's expected output must
    // surface as failed jobs and a non-zero exit.
    GridVariant& g = w.kinds.front().expected.front().second;
    float* cell = const_cast<float*>(grid_variant_data(g)) +
                  grid_variant_cells(g) / 2;
    std::uint32_t bits = 0;
    std::memcpy(&bits, cell, sizeof(bits));
    bits ^= 1u;
    std::memcpy(cell, &bits, sizeof(bits));
  }

  std::size_t next_kind = 0;
  std::vector<Slot> slots(1);  // one client, one job in flight
  Completions comp;
  Telemetry tel;
  for (Kind& k : w.kinds) {
    if (opt.trace && k.program) {
      k.program_traced = with_node_telemetry(*k.program, &tel);
    }
  }
  std::int64_t attempted = 0, failed = 0, leaked = 0, next_job = 0;
  std::vector<double> setups;
  Phase timed, traced;
  EngineDeltas deltas;
  // Epoch e's timed loop runs until the loops so far have taken (e+1)/E
  // of --seconds, so the overshoot of one slice (its last job finishing)
  // comes out of the next. A traced run gives every epoch an untraced
  // slice (the baseline of the tracing overhead) and a traced one, each
  // budgeted to half of --seconds over the run.
  const double share = opt.trace ? opt.seconds / 2 : opt.seconds;
  double spent_untraced = 0.0, spent_traced = 0.0;
  const auto budget = [&](int e, double spent) {
    return share * double(e + 1) / double(w.epochs) - spent;
  };
  for (int e = 0; e < w.epochs; ++e) {
    std::unique_ptr<EngineCluster> cluster;
    setups.push_back(set_up(cluster, w, attempted, failed));
    std::int64_t t = now_ns();
    log.set_enabled(false);
    timed.merge(run_phase(*cluster, w, next_kind, slots, comp,
                          budget(e, spent_untraced), nullptr, log, next_job));
    spent_untraced += double(now_ns() - t) / 1e9;
    if (opt.trace) {
      const std::vector<EngineStats> before = shard_stats(*cluster);
      t = now_ns();
      log.set_enabled(true);
      traced.merge(run_phase(*cluster, w, next_kind, slots, comp,
                             budget(e, spent_traced), &tel, log, next_job));
      spent_traced += double(now_ns() - t) / 1e9;
      cluster->wait_idle();
      deltas.add(before, shard_stats(*cluster));
    }
    cluster->wait_idle();
    for (int k = 0; k < cluster->shards(); ++k) {
      leaked += cluster->shard(k).buffer_pool().outstanding();
    }
  }  // each cluster's teardown is outside every timed interval
  if (leaked != 0) {
    std::cerr << "perfbench: " << leaked << " buffer-pool leases leaked\n";
  }
  attempted += timed.attempted + traced.attempted;
  failed += timed.failed + traced.failed + leaked;

  const auto mcups_of = [](const Phase& p) {
    return p.busy_s > 0 ? p.updates / p.busy_s / 1e6 : 0.0;
  };
  if (!opt.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics["mcups"] = mcups_of(timed);
    metrics["jobs_per_s"] =
        timed.busy_s > 0 ? double(timed.samples.size()) / timed.busy_s : 0.0;
    metrics["job_p50_ms"] = job_p50_ms(timed, w.kinds.size());
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;
    std::cerr << opt.workload << ": " << timed.samples.size()
              << " timed jobs of " << w.kinds.size() << " kinds in "
              << timed.busy_s << " s busy\n";
    // The highest whole percentile of the pooled latencies with at least
    // ten samples above it. Informational: too few jobs of a kind reach
    // it on the single-client workloads for a steady end-to-end metric.
    const double n = double(timed.samples.size());
    const double q = std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0;
    if (q >= 0.5) {
      std::vector<double> lat;
      for (const Sample& smp : timed.samples) lat.push_back(smp.latency_ms);
      std::cerr << opt.workload << ": job latency p" << q * 100 << " "
                << percentile(lat, q) << " ms ("
                << n - std::ceil(q * n) << " samples above it)\n";
    }
  } else {
    if (traced.samples.empty() && failed == 0) {
      throw std::runtime_error("no traced job completed; raise --seconds");
    }
    slots.clear();
    log.set_enabled(true);
    run_layer_probes(w, log, metrics);

    const MetricsSnapshot snap = tel.metrics().snapshot();
    const double spec_blocks =
        double(snap.value_or("kernels.dispatch_specialized", 0));
    const double fallback =
        double(snap.value_or("kernels.dispatch_fallback", 0));
    metrics["kernel.fallback_share"] =
        spec_blocks + fallback > 0 ? fallback / (spec_blocks + fallback) : 0.0;
    const double achieved_gflops =
        mcups_of(timed) * metrics["kernel.flops_per_update"] / 1e3;
    const double bound_gflops = std::min(
        roof.muladd_gflops, roof.copy_gbps * metrics["kernel.flops_per_update"] /
                                metrics["kernel.bytes_per_update_computed"]);
    metrics["kernel.roofline_frac"] = achieved_gflops / bound_gflops;

    std::vector<double> overhead;
    for (const Sample& s : traced.samples) {
      overhead.push_back(s.latency_ms - s.queue_ms - s.run_ms);
    }
    const std::vector<double> queue = log.durations_ms("engine.queue");
    metrics["engine.queue_ms_p50"] = percentile(queue, 0.50);
    metrics["engine.queue_ms_p99"] = percentile(queue, 0.99);
    metrics["engine.run_ms_p50"] = median(log.durations_ms("engine.run"));
    metrics["engine.overhead_ms_p50"] = median(overhead);
    metrics["engine.deliver_ms_p50"] =
        median(log.durations_ms("engine.deliver"));
    std::vector<double> submit_us = log.durations_ms("cluster.submit");
    for (double& v : submit_us) v *= 1e3;
    metrics["cluster.submit_us_p50"] = percentile(submit_us, 0.50);
    metrics["cluster.submit_us_p99"] = percentile(submit_us, 0.99);

    const double jobs = double(traced.samples.size());
    const double lookups = deltas.hits + deltas.misses;
    metrics["engine.plan_hit_rate"] = lookups > 0 ? deltas.hits / lookups : 0.0;
    metrics["engine.pool_allocs_per_job"] =
        jobs > 0 ? deltas.allocs / jobs : 0.0;
    metrics["host.copy_gbps"] = roof.copy_gbps;
    metrics["host.muladd_gflops"] = roof.muladd_gflops;
    metrics["trace.mcups"] = mcups_of(traced);
    metrics["trace.overhead_frac"] = 1.0 - mcups_of(traced) / mcups_of(timed);

    if (!opt.trace_out.empty()) {
      std::ofstream f(opt.trace_out);
      if (!f) throw std::runtime_error("cannot write " + opt.trace_out);
      std::vector<std::pair<std::string, std::string>> meta = {
          {"workload", opt.workload},
          {"seed", std::to_string(opt.seed)},
          {"host_fingerprint", host_profile().fingerprint()},
          {"copy_array_bytes", std::to_string(roof.array_bytes)},
          {"llc_bytes", std::to_string(roof.llc_bytes)},
      };
      for (const MetricDef& d : kPerLayer) {
        meta.emplace_back(d.name, format_number(metrics.at(d.name)));
      }
      log.write_chrome_trace(f, meta);
      std::cerr << "trace: " << log.size() << " spans written to "
                << opt.trace_out << "\n";
    }
  }

  const bool correct = failed == 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const double v = metrics.at(d.name);
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string("metric ") + d.name +
                               " is not finite");
    }
    line << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
         << format_number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = perfbench::parse_options(argc, argv);
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      throw std::invalid_argument("unknown workload `" + opt.workload + "`");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
