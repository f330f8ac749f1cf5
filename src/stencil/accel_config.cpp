#include "stencil/accel_config.hpp"

#include <algorithm>

#include "stencil/tap_set.hpp"

namespace fpga_stencil {

AcceleratorConfig resolve_stage_lag(const TapSet& taps,
                                    AcceleratorConfig cfg) {
  cfg.validate();
  FPGASTENCIL_EXPECT(taps.dims() == cfg.dims && taps.radius() <= cfg.radius,
                     "tap set and configuration disagree on dims/radius");
  if (cfg.stage_lag == 0) {
    const std::int64_t max_flat =
        taps.forward_reach(cfg.bsize_x, cfg.row_cells());
    const std::int64_t rows = ceil_div(
        std::max<std::int64_t>(max_flat, 1), cfg.row_cells());
    cfg.stage_lag = static_cast<int>(std::max<std::int64_t>(rows, 1));
  }
  return cfg;
}

ShiftWindow shift_window(const TapSet& taps, const AcceleratorConfig& cfg) {
  const std::int64_t row_cells = cfg.row_cells();
  ShiftWindow w;
  w.stage_lag = cfg.effective_stage_lag();
  const std::int64_t lag_cells = std::int64_t(w.stage_lag) * row_cells;
  FPGASTENCIL_EXPECT(
      taps.forward_reach(cfg.bsize_x, row_cells) <= lag_cells,
      "stage lag too small for the tap set's forward reach; set "
      "AcceleratorConfig::stage_lag = ceil(max_flat / row_cells)");
  w.center_base = -taps.backward_reach(cfg.bsize_x, row_cells);
  w.size = lag_cells + w.center_base + cfg.parvec;
  return w;
}

BlockingPlan make_blocking_plan(const AcceleratorConfig& cfg, std::int64_t nx,
                                std::int64_t ny, std::int64_t nz) {
  cfg.validate();
  FPGASTENCIL_EXPECT(nx > 0 && ny > 0 && nz > 0, "grid extents must be positive");
  if (cfg.dims == 2) {
    FPGASTENCIL_EXPECT(nz == 1, "2D plan must have nz == 1");
  }

  BlockingPlan plan;
  plan.config = cfg;
  plan.nx = nx;
  plan.ny = ny;
  plan.nz = nz;
  plan.blocks_x = ceil_div(nx, cfg.csize_x());

  if (cfg.dims == 2) {
    plan.blocks_y = 1;
    // y is streamed: ny real rows plus the chain's drain rows so the last
    // PE can retire row ny-1.
    plan.stream_extent = ny + cfg.stream_drain();
    plan.valid_cells = nx * ny;
  } else {
    plan.blocks_y = ceil_div(ny, cfg.csize_y());
    // z is streamed: nz real planes plus the chain's drain planes.
    plan.stream_extent = nz + cfg.stream_drain();
    plan.valid_cells = nx * ny * nz;
  }

  plan.cells_streamed_per_pass = plan.stream_extent * cfg.row_cells();
  plan.cells_streamed =
      plan.cells_streamed_per_pass * plan.blocks_x * plan.blocks_y;
  plan.vectors_streamed = plan.cells_streamed / cfg.parvec;
  return plan;
}

BlockExtent block_extent(const BlockingPlan& plan, std::int64_t index) {
  FPGASTENCIL_EXPECT(index >= 0 && index < plan.total_blocks(),
                     "block index outside the plan");
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t halo = cfg.halo();
  BlockExtent b;
  b.index = index;
  b.bx = index % plan.blocks_x;
  b.by = index / plan.blocks_x;
  b.x0 = b.bx * cfg.csize_x() - halo;
  b.valid_x_end = std::min(plan.nx, (b.bx + 1) * cfg.csize_x());
  if (cfg.dims == 3) {
    b.y0 = b.by * cfg.csize_y() - halo;
    b.valid_y_end = std::min(plan.ny, (b.by + 1) * cfg.csize_y());
  }
  return b;
}

}  // namespace fpga_stencil
