// Accelerator configuration: the paper's performance knobs.
//
//   - radius  : stencil radius (compile-time parameter in the paper; a
//               plain field here, since our "synthesis" is instantaneous)
//   - bsize   : spatial block size (x, and y for 3D) -- paper Section V.A
//   - parvec  : vector width, consecutive x-cells updated per cycle
//   - partime : degree of temporal parallelism = number of chained PEs
//
// Derived quantities follow the paper exactly:
//   halo       = partime * radius                  (overlapped blocking)
//   csize      = bsize - 2 * halo                  (eq. 2)
//   SR size    = 2*rad*bsize_x            + parvec (eq. 7, 2D)
//                2*rad*bsize_x*bsize_y    + parvec (eq. 7, 3D)
#pragma once

#include <cstdint>
#include <string>

#include "common/expect.hpp"
#include "common/math_util.hpp"

namespace fpga_stencil {

class Telemetry;  // telemetry/telemetry.hpp; pointer-only here
class TapSet;     // stencil/tap_set.hpp

struct AcceleratorConfig {
  int dims = 2;              ///< 2 or 3
  int radius = 1;            ///< stencil radius ("order" in the paper)
  std::int64_t bsize_x = 0;  ///< spatial block width (vectorized dimension)
  std::int64_t bsize_y = 1;  ///< spatial block height, 3D only (1 for 2D)
  int parvec = 1;            ///< vector width (cells per cycle per PE)
  int partime = 1;           ///< temporal parallelism (chained PEs)

  /// Stream-dimension rows (2D) / planes (3D) of lag per pipeline stage.
  /// 0 means "auto" = radius, which is exact for star stencils; generic
  /// tap sets whose farthest tap reaches past `radius` whole rows (e.g.
  /// box-stencil corners) need radius + 1. The accelerator sets this from
  /// the tap set.
  int stage_lag = 0;

  /// Dispatch gate for the vectorized array kernel (src/kernels). When
  /// true (the default), stream_block runs every tap set, under every
  /// boundary condition, on the kernel; when false the scalar
  /// interpreter runs. Never changes results (the kernel is bit-exact
  /// with the interpreter); exists so benchmarks and tests can pin the
  /// interpreter as the baseline/oracle.
  bool use_specialized_kernels = true;

  /// Opt-in observability hook, honored by every execution layer
  /// (StencilAccelerator, run_concurrent, run_block_parallel,
  /// run_resilient, MultiFpgaCluster). Null disables all
  /// instrumentation; the pointee
  /// must outlive the runs. Not a performance knob: it never changes what
  /// is computed.
  Telemetry* telemetry = nullptr;

  [[nodiscard]] int effective_stage_lag() const {
    return stage_lag > 0 ? stage_lag : radius;
  }

  /// Warm-up/drain rows of the streamed dimension per pass: the total
  /// pipeline lag of the PE chain.
  [[nodiscard]] std::int64_t stream_drain() const {
    return std::int64_t(partime) * effective_stage_lag();
  }

  /// Overlapped-blocking halo per side of each blocked dimension.
  [[nodiscard]] std::int64_t halo() const {
    return std::int64_t(partime) * radius;
  }

  /// Valid ("compute") block extent, paper eq. (2).
  [[nodiscard]] std::int64_t csize_x() const { return bsize_x - 2 * halo(); }
  [[nodiscard]] std::int64_t csize_y() const {
    return dims == 3 ? bsize_y - 2 * halo() : 1;
  }

  /// Cells per shift-register "row": one x-row in 2D, one z-plane in 3D.
  /// This is the unit the streaming dimension advances by.
  [[nodiscard]] std::int64_t row_cells() const {
    return dims == 3 ? bsize_x * bsize_y : bsize_x;
  }

  /// Shift-register size in cells, paper eq. (7).
  [[nodiscard]] std::int64_t shift_register_cells() const {
    return 2 * std::int64_t(radius) * row_cells() + parvec;
  }

  /// Cell updates retired per cycle across the whole PE chain.
  [[nodiscard]] std::int64_t updates_per_cycle() const {
    return std::int64_t(parvec) * partime;
  }

  /// Structural validity (block large enough for the halo, vectorization
  /// divides the block, positive knobs). Throws ConfigError on violation.
  void validate() const {
    FPGASTENCIL_EXPECT(dims == 2 || dims == 3, "dims must be 2 or 3");
    FPGASTENCIL_EXPECT(radius >= 1, "radius must be >= 1");
    FPGASTENCIL_EXPECT(parvec >= 1, "parvec must be >= 1");
    FPGASTENCIL_EXPECT(partime >= 1, "partime must be >= 1");
    FPGASTENCIL_EXPECT(bsize_x > 0, "bsize_x must be positive");
    FPGASTENCIL_EXPECT(is_multiple(bsize_x, std::int64_t(parvec)),
                       "bsize_x must be a multiple of parvec");
    FPGASTENCIL_EXPECT(stage_lag >= 0, "stage_lag must be non-negative");
    FPGASTENCIL_EXPECT(csize_x() > 0,
                       "block too small: bsize_x must exceed 2*partime*rad");
    if (dims == 3) {
      FPGASTENCIL_EXPECT(bsize_y > 1, "3D blocks need bsize_y > 1");
      FPGASTENCIL_EXPECT(csize_y() > 0,
                         "block too small: bsize_y must exceed 2*partime*rad");
    } else {
      FPGASTENCIL_EXPECT(bsize_y == 1, "2D blocks must have bsize_y == 1");
    }
  }

  /// The paper's external-memory alignment rule, eq. (6):
  /// (partime * rad) mod 4 == 0, and parvec a multiple of two (memory port
  /// width restriction). The tuner enforces this; the simulator does not
  /// require it.
  [[nodiscard]] bool meets_alignment_rule() const {
    return is_multiple(halo(), std::int64_t(4)) && parvec % 2 == 0;
  }

  [[nodiscard]] std::string describe() const {
    std::string s = std::to_string(dims) + "D rad=" + std::to_string(radius) +
                    " bsize=" + std::to_string(bsize_x);
    if (dims == 3) s += "x" + std::to_string(bsize_y);
    s += " parvec=" + std::to_string(parvec) +
         " partime=" + std::to_string(partime);
    // A resolved lag equal to the radius is the star-stencil default and
    // stays implicit; anything else (box-stencil corners, explicit
    // overrides) must show up so job labels are unambiguous.
    if (stage_lag != 0 && stage_lag != radius) {
      s += " lag=" + std::to_string(stage_lag);
    }
    return s;
  }
};

/// Block decomposition of a concrete grid under a configuration, with the
/// exact streamed-vs-valid cell accounting used by both the functional
/// simulator and the performance model.
struct BlockingPlan {
  AcceleratorConfig config;
  std::int64_t nx = 0, ny = 0, nz = 1;  ///< grid extents (nz==1 for 2D)
  std::int64_t blocks_x = 0;            ///< ceil(nx / csize_x)
  std::int64_t blocks_y = 1;            ///< ceil(ny / csize_y), 3D only
  std::int64_t stream_extent = 0;       ///< rows (2D) / planes (3D) streamed
                                        ///< per pass incl. drain filler
  std::int64_t cells_streamed_per_pass = 0;
  std::int64_t valid_cells = 0;      ///< nx*ny(*nz): real grid cells
  std::int64_t cells_streamed = 0;   ///< over all passes
  std::int64_t vectors_streamed = 0; ///< cells_streamed / parvec = cycles
                                     ///< in the zero-stall pipeline model

  /// Redundancy factor: streamed / valid >= 1. The paper's "redundant
  /// computation to support overlapped blocking".
  [[nodiscard]] double redundancy() const {
    return double(cells_streamed) / double(valid_cells);
  }

  /// Blocks per pass. Each is an independent unit of work (the overlap
  /// halo decouples them), which is what the block-parallel backend
  /// schedules over.
  [[nodiscard]] std::int64_t total_blocks() const {
    return blocks_x * blocks_y;
  }
};

/// One block of a BlockingPlan, resolved to grid coordinates: where the
/// streamed window starts (halo included, so origins can be negative)
/// and where the valid compute region ends. Every executor enumerates
/// blocks through this so they agree on the decomposition cell-for-cell.
struct BlockExtent {
  std::int64_t index = 0;        ///< flat block index: by * blocks_x + bx
  std::int64_t bx = 0, by = 0;   ///< block coordinates (by == 0 for 2D)
  std::int64_t x0 = 0;           ///< global x of block-local 0 (may be < 0)
  std::int64_t y0 = 0;           ///< global y of block-local 0, 3D only
  std::int64_t valid_x_end = 0;  ///< exclusive global end of compute region
  std::int64_t valid_y_end = 0;  ///< 3D only (unused for 2D)
};

/// Resolves flat block `index` (0 .. total_blocks()-1, x fastest) of the
/// plan. The last block of each dimension is clamped to the grid, exactly
/// as on the real accelerator (partial final block, wasted lanes).
BlockExtent block_extent(const BlockingPlan& plan, std::int64_t index);

/// Builds the plan; validates that the grid is compatible (positive sizes).
/// Grids that are not multiples of csize are allowed: the final block is
/// partially wasted, exactly as on the real accelerator.
BlockingPlan make_blocking_plan(const AcceleratorConfig& cfg, std::int64_t nx,
                                std::int64_t ny, std::int64_t nz = 1);

/// Validates `cfg` and resolves an automatic (0) stage_lag to the tap
/// set's forward reach (TapSet::forward_reach: every border image, not
/// just the plain offsets) in whole rows: radius for star stencils,
/// radius+1 for shapes whose farthest tap crosses a row boundary (box
/// corners). This is the exact derivation every executor, the engine's
/// plan cache and the kernel generator share, so a cached plan equals
/// what StencilAccelerator runs.
AcceleratorConfig resolve_stage_lag(const TapSet& taps,
                                    AcceleratorConfig cfg);

/// The shift-register window a PE needs to run `taps` with the stage lag
/// L = cfg.effective_stage_lag(): from the oldest cell any tap's border
/// image reads back to the newest loaded vector. Shared by the PE
/// interpreter and the generated OpenCL kernel (STAGE_LAG, CENTER_BASE,
/// SR_SIZE). Throws ConfigError when L rows do not cover the forward
/// reach.
struct ShiftWindow {
  int stage_lag = 0;             ///< L
  std::int64_t center_base = 0;  ///< window index of lane 0's centre
  std::int64_t size = 0;         ///< L rows + center_base + parvec cells
};
ShiftWindow shift_window(const TapSet& taps, const AcceleratorConfig& cfg);

}  // namespace fpga_stencil
