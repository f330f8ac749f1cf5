#include "stencil/tap_set.hpp"

#include <algorithm>

namespace fpga_stencil {

std::string BoundaryCondition::describe() const {
  if (kind != BoundaryKind::dirichlet) return boundary_kind_name(kind);
  return std::string("dirichlet(") + std::to_string(value) + ")";
}

TapSet::TapSet(int dims, int radius, std::vector<Tap> taps,
               BoundaryCondition boundary)
    : dims_(dims), radius_(radius), taps_(std::move(taps)),
      boundary_(boundary) {
  FPGASTENCIL_EXPECT(dims == 2 || dims == 3, "tap set must be 2D or 3D");
  FPGASTENCIL_EXPECT(radius >= 1, "radius must be >= 1");
  FPGASTENCIL_EXPECT(!taps_.empty(), "tap set must not be empty");
  if (boundary_.kind != BoundaryKind::dirichlet) boundary_.value = 0.0f;
  for (const Tap& t : taps_) {
    FPGASTENCIL_EXPECT(
        std::abs(t.dx) <= radius && std::abs(t.dy) <= radius &&
            std::abs(t.dz) <= radius,
        "tap offset exceeds the declared radius");
    if (dims == 2) {
      FPGASTENCIL_EXPECT(t.dz == 0, "2D tap set cannot have z offsets");
    }
  }
}

std::int64_t TapSet::flat_offset(const Tap& t, std::int64_t bsize_x,
                                 std::int64_t row_cells) const {
  if (dims_ == 2) return t.dy * bsize_x + t.dx;
  return t.dz * row_cells + t.dy * bsize_x + t.dx;
}

std::int64_t TapSet::min_flat_offset(std::int64_t bsize_x,
                                     std::int64_t row_cells) const {
  std::int64_t m = 0;
  for (const Tap& t : taps_) {
    m = std::min(m, flat_offset(t, bsize_x, row_cells));
  }
  return m;
}

std::int64_t TapSet::max_flat_offset(std::int64_t bsize_x,
                                     std::int64_t row_cells) const {
  std::int64_t m = 0;
  for (const Tap& t : taps_) {
    m = std::max(m, flat_offset(t, bsize_x, row_cells));
  }
  return m;
}

namespace {

/// The extreme image of a per-axis offset `d` under boundary `kind`,
/// toward + (forward) or - (backward).
std::int64_t axis_image(BoundaryKind kind, std::int64_t d, bool forward) {
  switch (kind) {
    case BoundaryKind::clamp:
      return forward ? std::max<std::int64_t>(d, 0)
                     : std::min<std::int64_t>(d, 0);
    case BoundaryKind::reflective:
      return forward ? std::abs(d) : -std::abs(d);
    default:
      return d;
  }
}

std::int64_t reach(const TapSet& taps, std::int64_t bsize_x,
                   std::int64_t row_cells, bool forward) {
  const BoundaryKind kind = taps.boundary().kind;
  std::int64_t m = 0;
  for (const Tap& t : taps.taps()) {
    const std::int64_t f = axis_image(kind, t.dx, forward) +
                           axis_image(kind, t.dy, forward) * bsize_x +
                           axis_image(kind, t.dz, forward) * row_cells;
    m = forward ? std::max(m, f) : std::min(m, f);
  }
  return m;
}

}  // namespace

std::int64_t TapSet::forward_reach(std::int64_t bsize_x,
                                   std::int64_t row_cells) const {
  return reach(*this, bsize_x, row_cells, true);
}

std::int64_t TapSet::backward_reach(std::int64_t bsize_x,
                                    std::int64_t row_cells) const {
  return reach(*this, bsize_x, row_cells, false);
}

double TapSet::coefficient_sum() const {
  double s = 0.0;
  for (const Tap& t : taps_) s += t.coeff;
  return s;
}

}  // namespace fpga_stencil
