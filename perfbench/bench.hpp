// Shared declarations of the repository benchmark (see README.md): the
// workload vocabulary, the in-memory span log of the traced run, the
// per-layer probes and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "program/program_spec.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {
class Telemetry;  // telemetry/telemetry.hpp; pointer-only here
}

namespace perfbench {

using fpga_stencil::AcceleratorConfig;
using fpga_stencil::GridVariant;
using fpga_stencil::ProgramSpec;
using fpga_stencil::TapSet;

/// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

/// Field name -> grid, in declaration order. Single-stencil jobs hold one
/// entry with an empty name.
using Fields = std::vector<std::pair<std::string, GridVariant>>;

/// One job shape a workload submits, with its golden-model answer.
struct Kind {
  std::string name;
  // Single-stencil job (program == nullptr).
  TapSet taps{2, 1, {fpga_stencil::Tap{0, 0, 0, 1.0f}}};
  AcceleratorConfig config;
  GridVariant input{fpga_stencil::Grid2D<float>(1, 1)};
  int iterations = 0;
  // Program job.
  std::shared_ptr<const ProgramSpec> program;
  /// The same program with one step: the set-up warm-up submission
  /// (fills the plan cache and buffer pool exactly like the full job;
  /// neither the plan key nor the pooled sizes depend on the step count).
  std::shared_ptr<const ProgramSpec> program_warm;
  /// The same program with the traced run's telemetry hook on every
  /// node (set by the traced phase only).
  std::shared_ptr<const ProgramSpec> program_traced;

  /// Golden-model result: every field, in declaration order.
  Fields expected;
  /// Per expected field: part of the chunk stream (work fields are not).
  std::vector<bool> streamed;
  std::int64_t stream_values = 0;  ///< floats a chunk sink receives

  double updates = 0.0;  ///< cell updates per job (cells x nodes x steps)
};

/// One named workload: one client submitting `kinds` in turn, one job
/// at a time, each with a chunk sink.
struct Workload {
  std::string name;
  std::vector<Kind> kinds;  ///< the shapes the timed loop submits
  int job_workers = 1;      ///< JobSpec::workers (block-parallel threads)
  /// Fresh clusters per run. Each is set up (timed; setup_s is the
  /// median over them) and then serves an equal slice of the timed loop.
  int epochs = 8;
};

/// Builds `name`'s inputs from `seed` and runs the golden models
/// (untimed). `smoke` shrinks every grid for the self-test. Throws
/// std::invalid_argument for an unknown workload.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Copies a program with the telemetry hook set on every node config.
std::shared_ptr<const ProgramSpec> with_node_telemetry(
    const ProgramSpec& program, fpga_stencil::Telemetry* telemetry);

// ---- traced run -------------------------------------------------------

/// One finished span: a call into a layer, timed from the benchmark.
/// Spans of one job share `job`; `parent` names the enclosing span.
struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "cluster.submit"
  std::string parent;
  std::int64_t job = -1;  ///< -1 for probe spans outside any job
  int lane = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  double work = 0.0;  ///< span-specific work count (cells, updates)
};

/// In-memory span store of the traced run, written as a Chrome trace at
/// exit. Disabled logs drop every span (the untraced phases).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void add(SpanRecord span);
  /// Durations in milliseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Chrome trace_event JSON; `metadata` lands under "otherData".
  void write_chrome_trace(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// ---- per-layer probes (traced run) -----------------------------------

/// Metric name -> value; units live with the metric table in main.cpp.
using MetricMap = std::map<std::string, double>;

/// Measured host bounds: multi-threaded streaming copy bandwidth and
/// sustained baseline-ISA multiply+add rate.
struct HostRoofline {
  double copy_gbps = 0.0;      ///< (read + written bytes) / s, all threads
  double muladd_gflops = 0.0;  ///< separate mul and add, all threads
  std::int64_t array_bytes = 0;  ///< each of the two copy arrays
  std::int64_t llc_bytes = 0;    ///< detected last-level cache
  int threads = 1;
};

HostRoofline measure_host_roofline(bool smoke, SpanLog& log);

/// Kernel, executor, program and plan-build probes on the workload's
/// stencil shapes (see README.md for each definition). Adds the
/// kernel.*, executor.*, program.* and engine.plan_build_us metrics.
void run_layer_probes(const Workload& w, SpanLog& log, MetricMap& out);

// ---- statistics --------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

}  // namespace perfbench
