// ProgramExecutor: runs a validated ProgramSpec through the engine's
// machinery -- PlanCache, BufferPool, HostAutotuner, CircuitBreaker,
// Telemetry -- inside the worker thread that dispatched the job
// (docs/PROGRAMS.md).
//
// It is the engine's one execution path: StencilEngine::execute turns a
// single-stencil job into the one-node program single_stencil_program()
// over the job's own grid and runs it here like any program job.
// resolve_plan (plan-cache lookup with the full tuner metric accounting),
// route (the shared routing policy, engine/run.hpp) and run_planned (the
// backend switch over pooled scratch) are the node runner.
//
// Execution model: all node plans are resolved and routed once up front
// (one plan-cache lookup -- and hence at most one tuner probe and exactly
// one tuner.cache_hit/miss tick -- per node per program run, regardless
// of `steps`), then the per-timestep schedule loops. Nodes run in place
// wherever the step semantics allow: a node that assigns into the field
// it reads runs on that field's buffer itself when no later node of the
// step reads the field's step-start state; other assign nodes copy their
// input once into the output field's back buffer and run there; add
// nodes run on a pooled work grid and add it into the back buffer.
// Written fields swap at the end of the step. Scratch, work and back
// buffers are BufferPool leases, so a program job leaks nothing even
// when a node throws mid-step.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/plan_cache.hpp"
#include "engine/run.hpp"
#include "program/program_spec.hpp"

namespace fpga_stencil {

class Telemetry;
class HostAutotuner;
class CancellationToken;
class CircuitBreaker;
class FaultInjector;

/// What running a whole program yields.
struct ProgramOutcome {
  /// Componentwise sum of every node run's RunStats.
  RunStats stats;
  /// Final state of every field, in declaration order.
  std::vector<std::pair<std::string, GridVariant>> fields;
  std::int64_t nodes_executed = 0;  ///< node runs = nodes * steps
  std::int64_t steps_executed = 0;
  bool all_plans_cached = true;  ///< every node's plan lookup was a hit
  bool any_plan_tuned = false;   ///< some node adopted a tuned geometry
  std::uint64_t fingerprint = 0;  ///< ProgramSpec::fingerprint()
  /// Each node's plan kernel fingerprint, in declaration order.
  std::vector<std::uint64_t> plan_fingerprints;
  /// The backend every node ran on, or `automatic` when nodes routed
  /// differently.
  ExecutionBackend backend = ExecutionBackend::automatic;
  bool rerouted = false;  ///< the circuit breaker overrode some node's route
  ClusterStats cluster;   ///< modeled timing of cluster-backend nodes
};

/// Per-job knobs of the node runner that only single-stencil jobs set
/// (program jobs keep the defaults, which the front door enforces).
struct NodeRunOptions {
  std::size_t channel_depth = 64;  ///< concurrent / resilient
  /// Fault source; under `automatic` it routes nodes to the resilient
  /// backend.
  FaultInjector* injector = nullptr;
  std::chrono::milliseconds watchdog_deadline{0};
  ResilienceOptions resilience;  ///< resilient-backend policy
  /// Multi-board shape; boards > 1 routes `automatic` nodes to the
  /// cluster timing model.
  ClusterRun cluster;
};

class ProgramExecutor {
 public:
  /// Engine services the executor borrows; all pointees must outlive it.
  /// StencilEngine builds one per job from its own members.
  struct Services {
    PlanCache* plans = nullptr;
    BufferPool* pool = nullptr;
    HostAutotuner* tuner = nullptr;           ///< null when autotune == off
    AutotuneMode autotune = AutotuneMode::off;
    Telemetry* telemetry = nullptr;           ///< required
    std::string metrics_prefix = "engine";
    /// Requested backend: automatic (route every node by route_backend)
    /// or an explicit one. Program jobs never run on the concurrent,
    /// resilient or cluster backends (validate_job_spec rejects them at
    /// the front door).
    ExecutionBackend backend = ExecutionBackend::automatic;
    /// Block-parallel worker threads (JobSpec::workers passthrough).
    int workers = 0;
    NodeRunOptions node;  ///< the job's knobs for every node run
    /// Gets the last word on every node's route and hears how the run
    /// went; null runs without one.
    CircuitBreaker* breaker = nullptr;
  };

  explicit ProgramExecutor(Services services);

  /// Plan-cache lookup with the engine's full metric accounting:
  /// <prefix>.plan_cache_{hit,miss}, and -- for tuned plans --
  /// <prefix>.tuner.cache_{hit,miss} (one tick per lookup: exactly one
  /// per node per program run), tuner.search_* on probing builds, and the
  /// tuner.gain_milli gauge.
  std::shared_ptr<const CachedPlan> resolve_plan(
      const TapSet& taps, const AcceleratorConfig& cfg, std::int64_t nx,
      std::int64_t ny, std::int64_t nz, const CancellationToken* token,
      bool* hit);

  /// Resolves Services::backend against a concrete plan through
  /// route_backend (engine/run.hpp), the one routing policy. The circuit
  /// breaker is not consulted here; run() applies it.
  [[nodiscard]] ExecutionBackend route(const CachedPlan& plan) const;

  /// Runs one planned stencil in place on `grid` over pooled scratch, on
  /// any routed backend, with Services::node's knobs. `cfg` is the plan's
  /// resolved config with the caller's telemetry hook restored. A cluster
  /// run writes its modeled timing to `cluster` when given.
  RunStats run_planned(const TapSet& taps, const AcceleratorConfig& cfg,
                       ExecutionBackend backend, Grid2D<float>& grid,
                       int iterations, const CancellationToken* token,
                       ClusterStats* cluster = nullptr);
  RunStats run_planned(const TapSet& taps, const AcceleratorConfig& cfg,
                       ExecutionBackend backend, Grid3D<float>& grid,
                       int iterations, const CancellationToken* token,
                       ClusterStats* cluster = nullptr);

  /// Runs the whole program: validate, resolve and route every node plan
  /// once, execute `steps` timesteps in DAG order. Emits
  /// <prefix>.program.nodes_scheduled / <prefix>.program.steps counters
  /// and a "<prefix>.program.node:<name>" span per node run
  /// (docs/OBSERVABILITY.md). Throws ConfigError / CancelledError /
  /// DeadlineExceededError like any job body. The fields' storage
  /// becomes the run's front buffers: pass an rvalue to run without
  /// copying it (a single-stencil job's grid), an lvalue to copy it in
  /// once (a program job's shared spec).
  ProgramOutcome run(ProgramSpec program, const CancellationToken* token,
                     int worker_id);

 private:
  [[nodiscard]] std::string m(const char* suffix) const;

  Services services_;
};

}  // namespace fpga_stencil
