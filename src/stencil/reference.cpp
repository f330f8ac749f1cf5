#include "stencil/reference.hpp"

#include <utility>

namespace fpga_stencil {

void reference_step(const StarStencil& stencil, const Grid2D<float>& in,
                    Grid2D<float>& out) {
  FPGASTENCIL_EXPECT(in.nx() == out.nx() && in.ny() == out.ny(),
                     "in/out shapes differ");
  for (std::int64_t y = 0; y < in.ny(); ++y) {
    for (std::int64_t x = 0; x < in.nx(); ++x) {
      out.at(x, y) = stencil.apply_point(in, x, y);
    }
  }
}

void reference_step(const StarStencil& stencil, const Grid3D<float>& in,
                    Grid3D<float>& out) {
  FPGASTENCIL_EXPECT(
      in.nx() == out.nx() && in.ny() == out.ny() && in.nz() == out.nz(),
      "in/out shapes differ");
  for (std::int64_t z = 0; z < in.nz(); ++z) {
    for (std::int64_t y = 0; y < in.ny(); ++y) {
      for (std::int64_t x = 0; x < in.nx(); ++x) {
        out.at(x, y, z) = stencil.apply_point(in, x, y, z);
      }
    }
  }
}

void reference_run(const StarStencil& stencil, Grid2D<float>& grid,
                   int iterations) {
  Grid2D<float> scratch(grid.nx(), grid.ny());
  for (int t = 0; t < iterations; ++t) {
    reference_step(stencil, grid, scratch);
    std::swap(grid, scratch);
  }
}

void reference_run(const StarStencil& stencil, Grid3D<float>& grid,
                   int iterations) {
  Grid3D<float> scratch(grid.nx(), grid.ny(), grid.nz());
  for (int t = 0; t < iterations; ++t) {
    reference_step(stencil, grid, scratch);
    std::swap(grid, scratch);
  }
}

// --- generic tap-set executors ---

namespace {

bool in_range(std::int64_t i, std::int64_t n) { return i >= 0 && i < n; }

}  // namespace

float apply_taps(const TapSet& taps, const Grid2D<float>& g, std::int64_t x,
                 std::int64_t y) {
  FPGASTENCIL_EXPECT(taps.dims() == 2, "2D apply of a 3D tap set");
  const BoundaryCondition& bc = taps.boundary();
  if (bc.kind == BoundaryKind::reflective) {
    FPGASTENCIL_EXPECT(g.nx() > taps.radius() && g.ny() > taps.radius(),
                       "reflective boundaries need extents > radius");
  }
  float acc = 0.0f;
  bool first = true;
  for (const Tap& t : taps.taps()) {
    const std::int64_t tx = x + t.dx;
    const std::int64_t ty = y + t.dy;
    float v;
    switch (bc.kind) {
      case BoundaryKind::clamp:
        v = g.at_clamped(tx, ty);
        break;
      case BoundaryKind::periodic:
        v = g.at(wrap_index(tx, g.nx()), wrap_index(ty, g.ny()));
        break;
      case BoundaryKind::reflective:
        v = g.at(mirror_index(tx, g.nx()), mirror_index(ty, g.ny()));
        break;
      case BoundaryKind::dirichlet:
        v = (in_range(tx, g.nx()) && in_range(ty, g.ny())) ? g.at(tx, ty)
                                                           : bc.value;
        break;
      default:
        v = g.at_clamped(tx, ty);
        break;
    }
    if (first) {
      acc = t.coeff * v;
      first = false;
    } else {
      acc += t.coeff * v;
    }
  }
  return acc;
}

float apply_taps(const TapSet& taps, const Grid3D<float>& g, std::int64_t x,
                 std::int64_t y, std::int64_t z) {
  FPGASTENCIL_EXPECT(taps.dims() == 3, "3D apply of a 2D tap set");
  const BoundaryCondition& bc = taps.boundary();
  if (bc.kind == BoundaryKind::reflective) {
    FPGASTENCIL_EXPECT(g.nx() > taps.radius() && g.ny() > taps.radius() &&
                           g.nz() > taps.radius(),
                       "reflective boundaries need extents > radius");
  }
  float acc = 0.0f;
  bool first = true;
  for (const Tap& t : taps.taps()) {
    const std::int64_t tx = x + t.dx;
    const std::int64_t ty = y + t.dy;
    const std::int64_t tz = z + t.dz;
    float v;
    switch (bc.kind) {
      case BoundaryKind::clamp:
        v = g.at_clamped(tx, ty, tz);
        break;
      case BoundaryKind::periodic:
        v = g.at(wrap_index(tx, g.nx()), wrap_index(ty, g.ny()),
                 wrap_index(tz, g.nz()));
        break;
      case BoundaryKind::reflective:
        v = g.at(mirror_index(tx, g.nx()), mirror_index(ty, g.ny()),
                 mirror_index(tz, g.nz()));
        break;
      case BoundaryKind::dirichlet:
        v = (in_range(tx, g.nx()) && in_range(ty, g.ny()) &&
             in_range(tz, g.nz()))
                ? g.at(tx, ty, tz)
                : bc.value;
        break;
      default:
        v = g.at_clamped(tx, ty, tz);
        break;
    }
    if (first) {
      acc = t.coeff * v;
      first = false;
    } else {
      acc += t.coeff * v;
    }
  }
  return acc;
}

void reference_step(const TapSet& taps, const Grid2D<float>& in,
                    Grid2D<float>& out) {
  FPGASTENCIL_EXPECT(in.nx() == out.nx() && in.ny() == out.ny(),
                     "in/out shapes differ");
  for (std::int64_t y = 0; y < in.ny(); ++y) {
    for (std::int64_t x = 0; x < in.nx(); ++x) {
      out.at(x, y) = apply_taps(taps, in, x, y);
    }
  }
}

void reference_step(const TapSet& taps, const Grid3D<float>& in,
                    Grid3D<float>& out) {
  FPGASTENCIL_EXPECT(
      in.nx() == out.nx() && in.ny() == out.ny() && in.nz() == out.nz(),
      "in/out shapes differ");
  for (std::int64_t z = 0; z < in.nz(); ++z) {
    for (std::int64_t y = 0; y < in.ny(); ++y) {
      for (std::int64_t x = 0; x < in.nx(); ++x) {
        out.at(x, y, z) = apply_taps(taps, in, x, y, z);
      }
    }
  }
}

void reference_run(const TapSet& taps, Grid2D<float>& grid, int iterations) {
  Grid2D<float> scratch(grid.nx(), grid.ny());
  for (int t = 0; t < iterations; ++t) {
    reference_step(taps, grid, scratch);
    std::swap(grid, scratch);
  }
}

void reference_run(const TapSet& taps, Grid3D<float>& grid, int iterations) {
  Grid3D<float> scratch(grid.nx(), grid.ny(), grid.nz());
  for (int t = 0; t < iterations; ++t) {
    reference_step(taps, grid, scratch);
    std::swap(grid, scratch);
  }
}

}  // namespace fpga_stencil
