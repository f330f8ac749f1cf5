// One Processing Element: a single temporal stage of the deep pipeline.
//
// The compute kernel of the paper (Fig. 2) is an autorun kernel replicated
// `partime` times; each replica advances its spatial block by one time step
// and streams the result to the next replica. A PE holds a shift register
// sized to the stencil's tap window (paper eq. 7 for star stencils); every
// cycle it shifts in one `parvec`-wide input vector and emits one output
// vector lagging `stage_lag` rows (2D) / planes (3D) behind.
//
// The PE executes any ordered TapSet (star, box, custom) whose offsets are
// bounded by the configuration's radius. Floating-point accumulation
// follows the tap order exactly, which is what makes the simulator
// bit-exact against the naive reference.
//
// Stream alignment contract (stage k, 0-based, L = effective_stage_lag):
//   input  stream row r carries global stream-dim index  r - k*L
//   output stream row r carries global stream-dim index  r - (k+1)*L
// so the write kernel behind stage partime-1 sees a total lag of
// partime*L rows, matching the drain rows the read kernel appends.
//
// Boundary conditions are applied *inside* the PE exactly as the paper's
// generated code does: every tap coordinate is clamped to the grid per
// axis, and the clamped coordinate's shift-register tap is selected.
// Clamping always moves a coordinate toward the center, so for any in-grid
// center the selected tap provably stays inside the register.
//
// Cells whose *center* is outside the grid (block halo sticking out of the
// grid, warm-up/drain filler) produce zeros; overlapped blocking guarantees
// no valid output ever depends on them.
#pragma once

#include <span>

#include "pipeline/shift_register.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/star_stencil.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

/// Per-block-pass context handed to every PE by the orchestrator (in the
/// OpenCL design this travels through a narrow side channel).
struct BlockContext {
  std::int64_t block_x0 = 0;  ///< global x of block-local x_rel == 0
  std::int64_t block_y0 = 0;  ///< global y of block-local y_rel == 0 (3D)
  std::int64_t nx = 0;        ///< grid extents
  std::int64_t ny = 0;
  std::int64_t nz = 1;
  bool passthrough = false;   ///< stage disabled in a tail pass: delay only
};

class ProcessingElement {
 public:
  /// Generic construction from an ordered tap set. `stage` is the 0-based
  /// position in the chain (autorun compute id). The configuration's
  /// effective stage lag must cover the tap set's forward reach.
  ProcessingElement(const TapSet& taps, const AcceleratorConfig& cfg,
                    int stage);

  /// Star-stencil convenience: executes stencil.to_taps().
  ProcessingElement(const StarStencil& stencil, const AcceleratorConfig& cfg,
                    int stage);

  /// Resets the shift register and adopts a new block context.
  void begin_block(const BlockContext& ctx);

  /// One pipeline cycle: consumes `in` (parvec cells at stream position q)
  /// and produces `out` (parvec cells, lagging stage_lag stream rows).
  void process_vector(std::int64_t q, std::span<const float> in,
                      std::span<float> out);

  [[nodiscard]] int stage() const { return stage_; }
  [[nodiscard]] const AcceleratorConfig& config() const { return cfg_; }

  /// Actual shift-register size for this tap set; equals the paper's
  /// eq. (7) for star stencils, larger for box stencils (corner reach).
  [[nodiscard]] std::int64_t shift_register_size() const {
    return sr_.size();
  }

 private:
  [[nodiscard]] float compute_lane(std::int64_t lane,
                                   std::int64_t center_flat) const;

  TapSet taps_;
  AcceleratorConfig cfg_;
  int stage_;
  std::int64_t row_cells_;    ///< bsize_x (2D) or bsize_x*bsize_y (3D)
  std::int64_t lag_cells_;    ///< effective_stage_lag * row_cells
  std::int64_t center_base_;  ///< SR logical index of the center, lane 0
  ShiftRegister<float> sr_;
  BlockContext ctx_;

  /// Per-tap data in accumulation order: unclamped flat offsets (interior
  /// fast path), coefficients, and axis offsets (border path).
  std::vector<std::int64_t> flat_offsets_;
  std::vector<float> coeffs_;
};

}  // namespace fpga_stencil
