#include "engine/stencil_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/expect.hpp"
#include "common/stopwatch.hpp"
#include "program/program_executor.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {
namespace {

/// Cancel-latency buckets: trip -> terminal is bounded by one block's
/// streaming time, so the interesting range is microseconds to tens of
/// milliseconds -- much finer than the decade-per-bucket job latencies.
std::vector<std::int64_t> cancel_latency_bounds_ns() {
  return {1'000,      10'000,      50'000,      100'000,      500'000,
          1'000'000,  5'000'000,   10'000'000,  50'000'000,   100'000'000,
          500'000'000, 1'000'000'000, 10'000'000'000};
}

/// Streams one grid through spec.sink in contiguous bands -- whole rows
/// (2D) or whole z-planes (3D), both contiguous in the row-major layouts,
/// so each chunk is one pointer + length into the grid with no staging
/// copies. `chunk` carries the field identity and the running ordinal
/// across calls; `final_grid` marks the stream's overall last band.
void stream_grid_bands(const GridVariant& grid, const JobSpec& spec,
                       ResultChunk& chunk, bool final_grid) {
  chunk.dims = grid_variant_dims(grid);
  chunk.nx = grid_variant_nx(grid);
  chunk.ny = grid_variant_ny(grid);
  chunk.nz = grid_variant_nz(grid);
  const std::int64_t stride =
      chunk.dims == 2 ? chunk.nx : chunk.nx * chunk.ny;
  const std::int64_t total = chunk.dims == 2 ? chunk.ny : chunk.nz;
  const float* base = grid_variant_data(grid);
  const std::int64_t per_chunk =
      std::max<std::int64_t>(1, spec.chunk_values / std::max<std::int64_t>(
                                                        stride, 1));
  for (std::int64_t start = 0; start < total; start += per_chunk) {
    chunk.start = start;
    chunk.count = std::min(per_chunk, total - start);
    chunk.data = base + start * stride;
    chunk.values = std::size_t(chunk.count * stride);
    chunk.last = final_grid && start + chunk.count >= total;
    spec.sink(chunk);
    ++chunk.index;
  }
}

/// The one chunk deliverer: a single-stencil job streams its grid as one
/// unnamed run; a program job streams every non-work field in
/// declaration order as its own run (ResultChunk::field names it). The
/// ordinal stays continuous across runs and `last` marks the final band
/// of the final run.
void stream_result_chunks(const JobSpec& spec, JobResult& result) {
  std::vector<std::pair<std::string, const GridVariant*>> runs;
  if (spec.program) {
    for (std::size_t i = 0; i < result.fields.size(); ++i) {
      if (spec.program->fields[i].work) continue;
      runs.emplace_back(result.fields[i].first, &result.fields[i].second);
    }
  } else {
    runs.emplace_back("", &result.grid);
  }
  ResultChunk chunk;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    chunk.field = runs[i].first;
    stream_grid_bands(*runs[i].second, spec, chunk, i + 1 == runs.size());
  }
  result.chunks_delivered = chunk.index;
  if (spec.sink_only) {
    // The stream was the delivery; free the server-side copies now.
    result.grid = Grid2D<float>(1, 1);
    result.fields.clear();
  }
}

}  // namespace

StencilEngine::StencilEngine(EngineOptions options)
    : options_(std::move(options)),
      telemetry_(options_.telemetry ? options_.telemetry : &own_telemetry_),
      plans_(options_.plan_cache_capacity),
      pool_(options_.pool_max_retained),
      breaker_(options_.breaker_threshold, options_.breaker_cooldown),
      queue_(std::vector<int>(options_.class_weights.begin(),
                              options_.class_weights.end())),
      paused_(options_.start_paused) {
  if (options_.metrics_prefix.empty()) options_.metrics_prefix = "engine";
  if (options_.autotune != AutotuneMode::off) {
    HostAutotunerOptions topts;
    topts.cache_path = options_.tuning_cache_path;
    topts.probe_cells = options_.autotune_probe_cells;
    tuner_ = std::make_unique<HostAutotuner>(std::move(topts));
  }
  const int workers = std::max(1, options_.workers);
  workers_.reserve(std::size_t(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

StencilEngine::~StencilEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == EngineState::running) state_ = EngineState::draining;
    stopping_ = true;
    paused_ = false;  // a parked pool must still drain accepted jobs
  }
  dispatch_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = EngineState::stopped;
  }
}

std::string StencilEngine::m(const char* suffix) const {
  return options_.metrics_prefix + "." + suffix;
}

std::shared_ptr<detail::JobState> StencilEngine::make_job_state(JobSpec spec) {
  // Cheap shape checks fail fast at the call site; full plan validation
  // happens in the worker and surfaces through the handle.
  validate_job_spec(spec);
  auto state = std::make_shared<detail::JobState>(std::move(spec));
  // The token is born at submit so a per-job deadline covers queue time:
  // a job that never leaves the queue in time still expires.
  state->token = state->spec.deadline.count() > 0
                     ? CancellationToken::with_timeout(state->spec.deadline)
                     : CancellationToken::make();
  return state;
}

JobHandle StencilEngine::admit(std::shared_ptr<detail::JobState> state) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.admission == EngineOptions::Admission::reject) {
      if (queue_.size() >= options_.queue_capacity &&
          state_ == EngineState::running) {
        telemetry_->metrics().counter(m("jobs_rejected")).add(1);
        throw EngineOverloadedError(
            "engine admission queue is full (" +
            std::to_string(options_.queue_capacity) + " jobs)");
      }
    } else {
      space_cv_.wait(lock, [&] {
        return queue_.size() < options_.queue_capacity ||
               state_ != EngineState::running;
      });
    }
    if (state_ != EngineState::running) {
      telemetry_->metrics().counter(m("jobs_rejected")).add(1);
      throw EngineStoppedError(std::string("engine is ") +
                               engine_state_name(state_) +
                               "; submissions are closed");
    }
    state->enqueue_time = std::chrono::steady_clock::now();
    queue_.push(std::size_t(state->spec.qos), state->spec.priority, state);
    queue_high_water_ =
        std::max(queue_high_water_, std::int64_t(queue_.size()));
    telemetry_->metrics().counter(m("jobs_submitted")).add(1);
    telemetry_->metrics().gauge(m("queue_depth"))
        .set(std::int64_t(queue_.size()));
  }
  dispatch_cv_.notify_one();
  return JobHandle(std::move(state));
}

JobHandle StencilEngine::submit(JobSpec spec) {
  return admit(make_job_state(std::move(spec)));
}

JobResult StencilEngine::run(JobSpec spec) {
  JobHandle handle = submit(std::move(spec));
  return std::move(handle.wait());
}

void StencilEngine::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void StencilEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

void StencilEngine::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void StencilEngine::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == EngineState::running) state_ = EngineState::draining;
    paused_ = false;  // a parked pool must still drain accepted jobs
  }
  dispatch_cv_.notify_all();
  space_cv_.notify_all();  // blocked submitters wake and see the state
}

void StencilEngine::drain() {
  begin_drain();
  wait_idle();
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == EngineState::draining) state_ = EngineState::stopped;
}

bool StencilEngine::shutdown(std::chrono::milliseconds deadline) {
  begin_drain();
  bool graceful = true;
  {
    std::unique_lock<std::mutex> lock(mu_);
    graceful = idle_cv_.wait_for(
        lock, deadline, [&] { return queue_.empty() && active_ == 0; });
    if (!graceful) {
      // Patience exhausted: cancel everything still in flight. Queued
      // jobs finalize as cancelled at dispatch; running jobs unwind
      // cooperatively at block granularity.
      queue_.for_each([](std::shared_ptr<detail::JobState>& job) {
        job->token.request_cancel();
      });
      for (const auto& job : running_) job->token.request_cancel();
    }
  }
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == EngineState::draining) state_ = EngineState::stopped;
  }
  return graceful;
}

EngineState StencilEngine::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void StencilEngine::clear_caches() {
  plans_.clear();
  pool_.clear();
}

EngineStats StencilEngine::stats() const {
  EngineStats s;
  const MetricsSnapshot snap = telemetry_->metrics().snapshot();
  s.jobs_submitted = snap.value_or(m("jobs_submitted"), 0);
  s.jobs_completed = snap.value_or(m("jobs_completed"), 0);
  s.jobs_failed = snap.value_or(m("jobs_failed"), 0);
  s.jobs_rejected = snap.value_or(m("jobs_rejected"), 0);
  s.plan_cache_hits = plans_.hits();
  s.plan_cache_misses = plans_.misses();
  s.jobs_cancelled = snap.value_or(m("jobs_cancelled"), 0);
  s.deadline_exceeded = snap.value_or(m("deadline_exceeded"), 0);
  s.breaker_trips = breaker_.trips();
  s.breaker_reroutes = breaker_.reroutes();
  s.pool_acquires = pool_.acquires();
  s.pool_allocations = pool_.allocations();
  s.pool_reuses = pool_.reuses();
  s.tuner_cache_hits = snap.value_or(m("tuner.cache_hit"), 0);
  s.tuner_cache_misses = snap.value_or(m("tuner.cache_miss"), 0);
  s.tuner_search_runs = snap.value_or(m("tuner.search_runs"), 0);
  s.tuner_search_candidates = snap.value_or(m("tuner.search_candidates"), 0);
  s.tuner_search_ns = snap.value_or(m("tuner.search_ns"), 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_high_water = queue_high_water_;
  }
  return s;
}

void StencilEngine::worker_loop(int worker_id) {
  for (;;) {
    std::shared_ptr<detail::JobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      dispatch_cv_.wait(lock,
                        [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;  // woken by pause()/resume() races; re-wait
      }
      job = queue_.pop();
      job->dispatch_seq = dispatch_seq_++;
      ++active_;
      running_.push_back(job);
      telemetry_->metrics().gauge(m("queue_depth"))
          .set(std::int64_t(queue_.size()));
    }
    space_cv_.notify_one();

    // A job whose token tripped while queued (cancel() on a queued
    // handle, deadline expiring in the queue, forced shutdown) never
    // starts executing: finalize it straight from the queue.
    if (job->token.cancel_requested()) {
      finish_cancelled(*job, job->token.cause() == CancelCause::deadline);
    } else {
      {
        std::lock_guard<std::mutex> job_lock(job->mu);
        job->status = JobStatus::running;
      }
      execute(*job, worker_id);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), job));
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void StencilEngine::execute(detail::JobState& job, int worker_id) {
  JobSpec& spec = job.spec;
  const std::int64_t queue_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - job.enqueue_time)
          .count();
  const auto span = telemetry_->tracer().span(
      m("job") + (spec.label.empty() ? "" : ":" + spec.label), worker_id,
      options_.metrics_prefix);
  const Stopwatch run_clock;
  try {
    // One executor per job: the node runner over this engine's plan
    // cache, pool, tuner, breaker and telemetry (src/program). Every job
    // runs through it: a single-stencil job is the one-node program over
    // its own grid, which moves in uncopied; a program job's shared spec
    // is copied in once.
    ProgramExecutor::Services services;
    services.plans = &plans_;
    services.pool = &pool_;
    services.tuner = tuner_.get();
    services.autotune = options_.autotune;
    services.telemetry = telemetry_;
    services.metrics_prefix = options_.metrics_prefix;
    services.backend = spec.backend;
    services.workers = spec.workers;
    services.node.channel_depth = spec.channel_depth;
    services.node.injector = spec.injector;
    services.node.watchdog_deadline = spec.watchdog_deadline;
    services.node.resilience = spec.resilience;
    services.node.cluster.boards = spec.boards;
    services.node.cluster.device = spec.device;
    services.node.cluster.link = spec.link;
    services.breaker = &breaker_;
    ProgramExecutor exec(std::move(services));
    ProgramOutcome outcome = exec.run(
        spec.program ? *spec.program
                     : single_stencil_program(spec.taps, spec.config,
                                              std::move(spec.grid),
                                              spec.iterations),
        &job.token, worker_id);

    JobResult result;
    result.backend = outcome.backend;
    result.rerouted = outcome.rerouted;
    result.plan_cache_hit = outcome.all_plans_cached;
    result.plan_tuned = outcome.any_plan_tuned;
    result.cluster = outcome.cluster;
    result.label = spec.label;
    result.tenant = spec.tenant;
    result.qos = spec.qos;
    result.dispatch_seq = job.dispatch_seq;
    result.queue_ns = queue_ns;
    result.stats = outcome.stats;
    result.program_nodes_executed = outcome.nodes_executed;
    result.program_steps = outcome.steps_executed;
    if (spec.program) {
      result.kernel_fingerprint = outcome.fingerprint;
      result.fields = std::move(outcome.fields);
    } else {
      result.kernel_fingerprint = outcome.plan_fingerprints.front();
      result.grid = std::move(outcome.fields.front().second);
    }
    if (spec.sink) stream_result_chunks(spec, result);
    result.run_ns = run_clock.nanoseconds();
    record_job_metrics(*telemetry_, options_.metrics_prefix, queue_ns,
                       result.run_ns, result.stats.cells_written);
    telemetry_->metrics().counter(m("jobs_completed")).add(1);
    export_breaker_gauges();
    finish(job, std::move(result));
  } catch (const DeadlineExceededError&) {
    finish_cancelled(job, /*deadline=*/true);
  } catch (const CancelledError&) {
    finish_cancelled(job, /*deadline=*/false);
  } catch (...) {
    // The executor charged the breaker already, and only for backend
    // failures: a bad spec (ConfigError) is the caller's fault.
    telemetry_->metrics().counter(m("jobs_failed")).add(1);
    telemetry_->tracer().instant(m("job_failed"), worker_id,
                                 options_.metrics_prefix);
    export_breaker_gauges();
    fail(job, std::current_exception());
  }
}

void StencilEngine::finish_cancelled(detail::JobState& job, bool deadline) {
  // Cancel latency: token trip -> job terminal. For a pre-cancelled
  // queued job this is dominated by dispatch delay; for a running job it
  // is the cooperative unwind (bounded by one block's streaming time).
  const std::int64_t latency_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - job.token.cancelled_at())
          .count();
  telemetry_->metrics()
      .histogram(m("cancel_latency_ns"), cancel_latency_bounds_ns())
      .observe(std::max<std::int64_t>(latency_ns, 0));
  telemetry_->metrics()
      .counter(deadline ? m("deadline_exceeded") : m("jobs_cancelled"))
      .add(1);
  std::exception_ptr error =
      deadline ? std::make_exception_ptr(
                     DeadlineExceededError("job deadline exceeded"))
               : std::make_exception_ptr(CancelledError("job cancelled"));
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.error = std::move(error);
    job.status =
        deadline ? JobStatus::deadline_exceeded : JobStatus::cancelled;
  }
  notify_terminal(job);
  job.cv.notify_all();
}

void StencilEngine::export_breaker_gauges() {
  // 0 = closed, 1 = open, 2 = half_open (docs/OBSERVABILITY.md).
  for (const Backend b : CircuitBreaker::breakable_backends()) {
    telemetry_->metrics()
        .gauge(m("breaker_state.") + backend_name(b))
        .set(std::int64_t(breaker_.state(b)));
  }
}

void StencilEngine::notify_terminal(detail::JobState& job) {
  // Runs after the terminal state is recorded and before waiters are
  // released (spurious wakeups aside), so "wait() returned" implies the
  // hook already ran -- EngineCluster's quota release depends on that.
  if (!job.spec.on_terminal) return;
  JobStatus status;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    status = job.status;
  }
  job.spec.on_terminal(status);
}

void StencilEngine::finish(detail::JobState& job, JobResult result) {
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result = std::move(result);
    job.status = JobStatus::done;
  }
  notify_terminal(job);
  job.cv.notify_all();
}

void StencilEngine::fail(detail::JobState& job, std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.error = std::move(error);
    job.status = JobStatus::failed;
  }
  notify_terminal(job);
  job.cv.notify_all();
}

}  // namespace fpga_stencil
