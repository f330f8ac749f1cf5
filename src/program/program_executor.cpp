#include "program/program_executor.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/cancellation.hpp"
#include "common/expect.hpp"
#include "engine/circuit_breaker.hpp"
#include "telemetry/telemetry.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {
namespace {

/// Everything resolved once per node before the timestep loop starts:
/// the boundary-stamped taps, the plan's config with the node's telemetry
/// hook restored, and the routed backend. Reused across all steps, so
/// plan-cache/tuner accounting ticks once per node per program run.
struct ResolvedNode {
  // TapSet has no default ctor; the placeholder is overwritten by
  // stamped_taps before any use.
  TapSet taps{2, 1, {Tap{0, 0, 0, 1.0f}}};
  AcceleratorConfig cfg;
  std::shared_ptr<const CachedPlan> plan;
  ExecutionBackend backend = ExecutionBackend::sync_sim;
  int in_field = 0;
  int out_field = 0;
};

/// Per-field runtime state. `front` is the step-start value; the step's
/// writes land in the back buffer -- a pool lease taken on the first
/// write that needs it, or `front` itself after an in-place node.
struct FieldState {
  std::vector<float> front;
  std::optional<BufferPool::Lease> back;
  bool written = false;   ///< some node wrote the field this step
  bool in_place = false;  ///< ...in place: the back buffer is `front`
  int dims = 2;
  std::int64_t nx = 0, ny = 0, nz = 1, cells = 0;

  std::vector<float>& back_buffer(BufferPool& pool) {
    if (in_place) return front;
    if (!back) back.emplace(pool, std::size_t(cells));
    return back->buffer();
  }
};

/// `storage` as a grid of the field's shape (moved, not copied).
GridVariant field_grid(const FieldState& s, std::vector<float>&& storage) {
  if (s.dims == 2) return Grid2D<float>(s.nx, s.ny, std::move(storage));
  return Grid3D<float>(s.nx, s.ny, s.nz, std::move(storage));
}

/// Moves the storage out of whichever grid `grid` holds.
std::vector<float> take_storage(GridVariant& grid) {
  return std::visit([](auto& g) { return g.release_storage(); }, grid);
}

/// For each node: whether it may run on its field's front buffer itself.
/// It must assign into the field it reads (it then reads front: the one
/// assign writer precedes every other writer of the field), and no node
/// scheduled after it in the step may read that field's front.
std::vector<bool> in_place_flags(const ProgramSpec& program,
                                 const std::vector<std::size_t>& order,
                                 const std::vector<bool>& reads_back) {
  std::vector<bool> flags(program.nodes.size(), false);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const KernelNode& node = program.nodes[order[pos]];
    if (node.combine != CombineOp::assign || node.reads != node.writes) {
      continue;
    }
    flags[order[pos]] = std::none_of(
        order.begin() + std::ptrdiff_t(pos) + 1, order.end(),
        [&](std::size_t j) {
          return program.nodes[j].reads == node.writes && !reads_back[j];
        });
  }
  return flags;
}

}  // namespace

ProgramExecutor::ProgramExecutor(Services services)
    : services_(std::move(services)) {
  FPGASTENCIL_EXPECT(services_.plans != nullptr,
                     "ProgramExecutor requires a PlanCache");
  FPGASTENCIL_EXPECT(services_.pool != nullptr,
                     "ProgramExecutor requires a BufferPool");
  FPGASTENCIL_EXPECT(services_.telemetry != nullptr,
                     "ProgramExecutor requires a Telemetry sink");
}

std::string ProgramExecutor::m(const char* suffix) const {
  return services_.metrics_prefix + "." + suffix;
}

std::shared_ptr<const CachedPlan> ProgramExecutor::resolve_plan(
    const TapSet& taps, const AcceleratorConfig& cfg, std::int64_t nx,
    std::int64_t ny, std::int64_t nz, const CancellationToken* token,
    bool* hit_out) {
  bool hit = false;
  const PlanAutotune autotune{services_.autotune, services_.tuner, token};
  const std::shared_ptr<const CachedPlan> plan =
      services_.plans->lookup_or_build(taps, cfg, nx, ny, nz, &hit, autotune);
  MetricsRegistry& metrics = services_.telemetry->metrics();
  metrics.counter(hit ? m("plan_cache_hit") : m("plan_cache_miss")).add(1);
  if (plan->tuned) {
    // tuner.cache_hit counts every lookup served by an already-tuned plan
    // (plan-cache hit, or a build whose winner came from the TuningCache);
    // tuner.cache_miss counts the builds that probed.
    const bool probed = !hit && !plan->tuned_from_cache;
    metrics.counter(probed ? m("tuner.cache_miss") : m("tuner.cache_hit"))
        .add(1);
    if (probed) {
      metrics.counter(m("tuner.search_runs")).add(1);
      metrics.counter(m("tuner.search_candidates"))
          .add(plan->tuner_candidates_probed);
      metrics.counter(m("tuner.search_ns")).add(plan->tuner_search_ns);
    }
    if (plan->tuned_baseline_mcells > 0.0) {
      metrics.gauge(m("tuner.gain_milli"))
          .set(std::int64_t(plan->tuned_mcells / plan->tuned_baseline_mcells *
                            1000.0));
    }
  }
  if (hit_out) *hit_out = hit;
  return plan;
}

ExecutionBackend ProgramExecutor::route(const CachedPlan& plan) const {
  return route_backend(services_.backend, services_.node.cluster.boards,
                       services_.node.injector != nullptr,
                       plan.blocking.total_blocks(), services_.workers);
}

namespace {

template <typename GridT>
RunStats run_planned_impl(const ProgramExecutor::Services& services,
                          const TapSet& taps, const AcceleratorConfig& cfg,
                          ExecutionBackend backend, GridT& grid,
                          int iterations, const CancellationToken* token,
                          ClusterStats* cluster_out) {
  const NodeRunOptions& node = services.node;
  RunOptions ropts;
  ropts.backend = backend;
  ropts.channel_depth = node.channel_depth;
  ropts.workers = services.workers;
  ropts.injector = node.injector;
  ropts.watchdog_deadline = node.watchdog_deadline;
  ropts.pool = services.pool;  // per-worker lane scratch
  if (token) ropts.cancel = *token;
  // The cluster model keeps its own buffers; every other backend
  // ping-pongs through one pooled scratch grid.
  std::optional<BufferPool::Lease> scratch;
  if (backend != ExecutionBackend::cluster) {
    scratch.emplace(*services.pool, grid.size());
    ropts.scratch = &scratch->buffer();
  }
  ClusterRun cluster = node.cluster;
  const RunStats stats =
      run(taps, cfg, grid, iterations, ropts, node.resilience, &cluster);
  if (cluster_out) *cluster_out = cluster.stats;
  return stats;
}

/// Runs `runner` on `buffer` viewed as a grid of the field's shape; the
/// storage moves into the grid and back, so nothing is copied.
template <typename Runner>
RunStats run_on_buffer(const FieldState& shape, std::vector<float>& buffer,
                       Runner&& runner) {
  GridVariant grid = field_grid(shape, std::move(buffer));
  const RunStats stats = std::visit(runner, grid);
  buffer = take_storage(grid);
  return stats;
}

}  // namespace

RunStats ProgramExecutor::run_planned(const TapSet& taps,
                                      const AcceleratorConfig& cfg,
                                      ExecutionBackend backend,
                                      Grid2D<float>& grid, int iterations,
                                      const CancellationToken* token,
                                      ClusterStats* cluster) {
  return run_planned_impl(services_, taps, cfg, backend, grid, iterations,
                          token, cluster);
}

RunStats ProgramExecutor::run_planned(const TapSet& taps,
                                      const AcceleratorConfig& cfg,
                                      ExecutionBackend backend,
                                      Grid3D<float>& grid, int iterations,
                                      const CancellationToken* token,
                                      ClusterStats* cluster) {
  return run_planned_impl(services_, taps, cfg, backend, grid, iterations,
                          token, cluster);
}

ProgramOutcome ProgramExecutor::run(ProgramSpec program,
                                    const CancellationToken* token,
                                    int worker_id) {
  program.validate();
  const std::vector<std::size_t> order = program.schedule();
  const std::vector<bool> reads_back = detail::reads_back_flags(program);
  const std::vector<bool> in_place = in_place_flags(program, order, reads_back);
  BufferPool& pool = *services_.pool;

  ProgramOutcome out;
  out.fingerprint = program.fingerprint();

  // The fields' storage becomes the front buffers; from here on only
  // `states` knows the extents.
  std::vector<FieldState> states(program.fields.size());
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    FieldSpec& f = program.fields[i];
    FieldState& s = states[i];
    s.dims = grid_variant_dims(f.data);
    s.nx = grid_variant_nx(f.data);
    s.ny = grid_variant_ny(f.data);
    s.nz = grid_variant_nz(f.data);
    s.cells = grid_variant_cells(f.data);
    s.front = take_storage(f.data);
  }

  // Resolve and route every node plan once, in schedule order; the
  // timestep loop reuses the handles, so a program run costs exactly one
  // plan-cache lookup (and at most one autotune probe) per node, however
  // many steps it advances. The circuit breaker gets the last word on
  // each route: a backend with an open breaker hands its nodes to the
  // sync_sim fallback until a half-open probe proves it healthy again.
  std::vector<ResolvedNode> resolved(program.nodes.size());
  out.plan_fingerprints.resize(program.nodes.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t idx = order[pos];
    const KernelNode& node = program.nodes[idx];
    ResolvedNode& rn = resolved[idx];
    rn.in_field = program.field_index(node.reads);
    rn.out_field = program.field_index(node.writes);
    const FieldState& in = states[std::size_t(rn.in_field)];
    rn.taps = program.stamped_taps(idx);
    bool hit = false;
    rn.plan =
        resolve_plan(rn.taps, node.config, in.nx, in.ny, in.nz, token, &hit);
    out.all_plans_cached = out.all_plans_cached && hit;
    out.any_plan_tuned = out.any_plan_tuned || rn.plan->tuned;
    out.plan_fingerprints[idx] = rn.plan->kernel_fingerprint;
    // The cached config is hook-free; restore the node's telemetry hook.
    rn.cfg = rn.plan->config;
    rn.cfg.telemetry = node.config.telemetry;
    rn.backend = route(*rn.plan);
    if (services_.breaker) {
      const CircuitBreaker::Decision routed =
          services_.breaker->route(rn.backend);
      rn.backend = routed.backend;
      if (routed.rerouted) {
        out.rerouted = true;
        services_.telemetry->metrics().counter(m("breaker_rerouted")).add(1);
        services_.telemetry->tracer().instant(m("breaker_reroute"), worker_id,
                                              services_.metrics_prefix);
      }
    }
    out.backend = pos == 0 || rn.backend == out.backend
                      ? rn.backend
                      : ExecutionBackend::automatic;  // nodes disagree
  }

  Tracer& tracer = services_.telemetry->tracer();
  const std::string span_base = m("program.node") + ":";
  ExecutionBackend running = ExecutionBackend::automatic;
  try {
    for (int step = 0; step < program.steps; ++step) {
      if (token) token->throw_if_cancelled();
      for (const std::size_t idx : order) {
        const KernelNode& node = program.nodes[idx];
        const ResolvedNode& rn = resolved[idx];
        FieldState& in = states[std::size_t(rn.in_field)];
        FieldState& dst = states[std::size_t(rn.out_field)];
        const Tracer::Span span = tracer.span(span_base + node.name, worker_id,
                                              services_.metrics_prefix);
        running = rn.backend;
        const auto advance = [&](auto& grid) {
          return run_planned(rn.taps, rn.cfg, rn.backend, grid,
                             node.iterations, token, &out.cluster);
        };
        if (in_place[idx]) {
          // Nobody reads this field's step-start state any more: advance
          // it where it lies.
          out.stats.accumulate(run_on_buffer(in, in.front, advance));
          dst.in_place = true;
        } else {
          const std::vector<float>& src =
              reads_back[idx] ? in.back_buffer(pool) : in.front;
          if (node.combine == CombineOp::assign) {
            // One copy of the input into the output's back buffer, then
            // advance it there.
            std::vector<float>& back = dst.back_buffer(pool);
            std::copy(src.begin(), src.end(), back.begin());
            out.stats.accumulate(run_on_buffer(dst, back, advance));
          } else {
            BufferPool::Lease work(pool, std::size_t(in.cells));
            std::copy(src.begin(), src.end(), work.buffer().begin());
            out.stats.accumulate(run_on_buffer(in, work.buffer(), advance));
            detail::combine_field(node.combine, dst.written, dst.front.data(),
                                  work.buffer().data(),
                                  dst.back_buffer(pool).data(), dst.cells);
          }
        }
        dst.written = true;
        ++out.nodes_executed;
      }
      for (FieldState& s : states) {
        if (s.written && !s.in_place) std::swap(s.front, s.back->buffer());
        s.written = s.in_place = false;
      }
      ++out.steps_executed;
    }
  } catch (const CancelledError&) {
    throw;
  } catch (const ConfigError&) {
    throw;
  } catch (...) {
    // Cancellations and bad specs say nothing about backend health; any
    // other failure is charged to the backend of the node that raised it.
    if (services_.breaker) services_.breaker->on_failure(running);
    throw;
  }
  if (services_.breaker) {
    for (const ResolvedNode& rn : resolved) {
      services_.breaker->on_success(rn.backend);
    }
  }

  MetricsRegistry& metrics = services_.telemetry->metrics();
  metrics.counter(m("program.nodes_scheduled")).add(out.nodes_executed);
  metrics.counter(m("program.steps")).add(out.steps_executed);

  out.fields.reserve(program.fields.size());
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    out.fields.emplace_back(program.fields[i].name,
                            field_grid(states[i], std::move(states[i].front)));
  }
  return out;
}

}  // namespace fpga_stencil
