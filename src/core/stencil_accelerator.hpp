// The stencil accelerator: the paper's primary contribution, as a
// functional architecture simulator.
//
// Mirrors Fig. 2 of the paper: a read kernel streams overlapped spatial
// blocks from "external memory" (the input grid), `partime` stages
// advance each block one time step per stage, and a write kernel retires
// the valid (non-halo) cells to the output grid.
//
//   * 1.5D blocking for 2D stencils: block in x (bsize_x), stream y.
//   * 2.5D blocking for 3D stencils: block in x/y, stream z.
//   * Overlapped blocking: each pass streams bsize-wide blocks that overlap
//     by 2*partime*rad; no halo exchange between PEs is ever needed.
//   * Each block pass is driven by a single collapsed loop over a global
//     vector index (the paper's loop-collapse / exit-condition
//     optimization); block/row/lane coordinates are decomposed from it.
//
// The accelerator executes any ordered TapSet (the paper's star stencils
// via StarStencil, box stencils via make_box_stencil, or custom shapes).
// `run` chains ceil(iterations / partime) passes, the final partial pass
// running fewer steps. It is the block executor (run_block_parallel,
// core/block_parallel_accelerator.hpp) at one worker on the calling
// thread: the sync simulator and the block-parallel backend share one
// pass loop and one per-block core (core/block_streamer.hpp).
//
// The output is bit-exact against the naive reference (`reference_run`)
// for any configuration and grid size: the integration test suite pins
// this for star and box stencils alike.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cancellation.hpp"
#include "grid/grid.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/star_stencil.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

/// Execution statistics of one `run` call, in the zero-stall pipeline model
/// (one vector per cycle). The performance model layers memory-controller
/// behaviour on top of these raw counts.
struct RunStats {
  int passes = 0;
  std::int64_t time_steps = 0;          ///< total stencil iterations applied
  std::int64_t cells_streamed = 0;      ///< incl. halos, warm-up and drain
  std::int64_t cells_written = 0;       ///< valid cells retired
  /// Stage-cell evaluations: the specialized kernels count the in-grid
  /// cells of each stage's influence cone, the interpreter every
  /// streamed cell times the pass's steps (its PEs evaluate them all).
  std::int64_t cells_computed = 0;
  std::int64_t vectors_processed = 0;   ///< == pipeline cycles, zero-stall
  std::int64_t block_passes = 0;        ///< blocks streamed across all passes

  // Resilience counters, populated by the fault-aware execution paths
  // (fault/resilient_runner, ocl retry wrappers); all zero in fault-free
  // runs, so benches can report resilience overhead directly.
  std::int64_t faults_injected = 0;     ///< injector fires observed this run
  std::int64_t transient_retries = 0;   ///< backoff retries of shim calls
  std::int64_t watchdog_trips = 0;      ///< passes unwound by the watchdog
  std::int64_t checksum_failures = 0;   ///< corrupted passes detected
  std::int64_t pass_replays = 0;        ///< pass attempts repeated
  std::int64_t checkpoints_saved = 0;
  std::int64_t checkpoint_restores = 0;
  bool degraded_to_reference = false;   ///< fell back to the CPU golden path

  /// Redundant work factor actually incurred (streamed / written).
  [[nodiscard]] double redundancy() const {
    return cells_written > 0 ? double(cells_streamed) / double(cells_written)
                             : 0.0;
  }

  /// Stage-cell evaluations per cell update (computed / (written per
  /// pass * steps)); 1.0 means no redundant arithmetic. Unlike
  /// redundancy(), which counts streamed cells (eq. 2), this is what
  /// the compute actually paid.
  [[nodiscard]] double compute_redundancy() const {
    return cells_written > 0 && time_steps > 0
               ? double(cells_computed) * double(passes) /
                     (double(cells_written) * double(time_steps))
               : 0.0;
  }

  /// Folds the streaming/resilience counters of another run (e.g. one
  /// pass attempt) into this aggregate.
  void accumulate(const RunStats& other) {
    passes += other.passes;
    time_steps += other.time_steps;
    cells_streamed += other.cells_streamed;
    cells_written += other.cells_written;
    cells_computed += other.cells_computed;
    vectors_processed += other.vectors_processed;
    block_passes += other.block_passes;
    faults_injected += other.faults_injected;
    transient_retries += other.transient_retries;
    watchdog_trips += other.watchdog_trips;
    checksum_failures += other.checksum_failures;
    pass_replays += other.pass_replays;
    checkpoints_saved += other.checkpoints_saved;
    checkpoint_restores += other.checkpoint_restores;
    degraded_to_reference = degraded_to_reference || other.degraded_to_reference;
  }
};

class StencilAccelerator {
 public:
  /// Generic construction: executes `taps` under `cfg`. If cfg.stage_lag
  /// is 0 (auto) it is derived from the tap set's forward reach (equal to
  /// the radius for star stencils, radius+1 rows for box corners).
  StencilAccelerator(const TapSet& taps, const AcceleratorConfig& cfg);

  /// Star-stencil convenience (the paper's benchmarks).
  StencilAccelerator(const StarStencil& stencil, const AcceleratorConfig& cfg);

  /// Advances `grid` by `iterations` time steps in place (2D configs
  /// only). `scratch`, when non-null, donates its storage for the internal
  /// ping-pong grid and receives it back on return (buffer-pool reuse
  /// across runs); null keeps the original allocate-per-run behavior.
  /// A non-null `cancel` token is polled at sub-block granularity; a
  /// tripped token throws CancelledError / DeadlineExceededError with
  /// `grid` still holding the last *completed* pass (never a partial one)
  /// and `scratch` left empty (the aborted pass drops its storage).
  RunStats run(Grid2D<float>& grid, int iterations,
               std::vector<float>* scratch = nullptr,
               const CancellationToken* cancel = nullptr);

  /// Advances `grid` by `iterations` time steps in place (3D configs only).
  RunStats run(Grid3D<float>& grid, int iterations,
               std::vector<float>* scratch = nullptr,
               const CancellationToken* cancel = nullptr);

  /// The configuration as actually executed (stage_lag resolved).
  [[nodiscard]] const AcceleratorConfig& config() const { return cfg_; }
  [[nodiscard]] const TapSet& taps() const { return taps_; }

 private:
  TapSet taps_;
  AcceleratorConfig cfg_;
};

}  // namespace fpga_stencil
