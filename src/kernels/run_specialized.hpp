// `run_specialized<Shape, Rad, Dims, ParVec>`: one overlapped block pass,
// with the stencil shape, radius, dimensionality, and vector width baked
// in at compile time.
//
// This is the host-side analogue of the paper's synthesized pipeline. The
// scalar interpreter (`stream_block_generic`) walks a ring-buffer shift
// register cell by cell with per-tap bounds checks; a specialized kernel
// instead keeps a structure-of-arrays rolling window of planes (3D) /
// rows (2D) per temporal stage (PlanarShiftRegister) and updates each
// output row with tap-outer / lane-inner loops whose trip counts are
// constexpr, so the compiler fully vectorizes the interior.
//
// Bit-exactness contract (verified per entry by tests/kernels_test.cpp):
// for every cell the accumulation is `acc = c[0]*tap0; acc += c[t]*tapt`
// in canonical tap order, with every tap clamped toward the grid per axis
// and out-of-grid centers producing zero -- exactly the interpreter's
// arithmetic, in the same order. The only intentional divergence is in
// cells no valid output can observe: the kernels compute only each
// stage's influence cone, where the interpreter (like the FPGA pipeline)
// computes the whole block, including block-edge lanes that read wrapped
// shift-register rows (see docs/KERNELS.md for the influence-cone
// argument that this is sound).
//
// Instantiations for the supported envelope live in star_kernels_*.cpp /
// box_kernels_*.cpp and are reachable through the KernelRegistry; this
// header only declares the template and the envelope's extern templates,
// so including it never re-instantiates kernel code.
#pragma once

#include <cstdint>
#include <type_traits>

#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

template <typename T>
class Grid2D;
template <typename T>
class Grid3D;
class CancellationToken;
struct RunStats;

/// The two tap layouts with canonical orders the kernels hard-code.
enum class StencilShape { kStar, kBox };

[[nodiscard]] constexpr const char* stencil_shape_name(StencilShape s) {
  return s == StencilShape::kStar ? "star" : "box";
}

template <int Dims>
using GridOf = std::conditional_t<Dims == 3, Grid3D<float>, Grid2D<float>>;

/// Runs one block pass of `steps` (<= cfg.partime) time steps over `blk`,
/// retiring the block's valid compute region into `out`. `coeffs` holds
/// the tap coefficients in canonical order for <Shape, Rad, Dims> (the
/// caller extracts them from its TapSet). Stats accounting matches the
/// interpreter field for field (cells_streamed, vectors_processed,
/// block_passes, cells_written) except cells_computed, which counts the
/// in-grid cells of the stage cones; a non-null `cancel` token is polled
/// once per streamed plane/row -- at least as often as the interpreter's
/// one-block-time cancellation bound requires.
template <StencilShape Shape, int Rad, int Dims, int ParVec>
void run_specialized(const BlockingPlan& plan, const BlockExtent& blk,
                     const GridOf<Dims>& in, GridOf<Dims>& out, int steps,
                     const float* coeffs, RunStats& stats,
                     const CancellationToken* cancel);

using SpecializedKernel2DFn = void (*)(const BlockingPlan&, const BlockExtent&,
                                       const Grid2D<float>&, Grid2D<float>&,
                                       int, const float*, RunStats&,
                                       const CancellationToken*);
using SpecializedKernel3DFn = void (*)(const BlockingPlan&, const BlockExtent&,
                                       const Grid3D<float>&, Grid3D<float>&,
                                       int, const float*, RunStats&,
                                       const CancellationToken*);

// The envelope's explicit instantiations (one TU per shape x dims so a
// change to one family recompiles only that file).
#define FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(X, SHAPE, DIMS) \
  X(SHAPE, 1, DIMS, 1)                                     \
  X(SHAPE, 1, DIMS, 4)                                     \
  X(SHAPE, 1, DIMS, 8)                                     \
  X(SHAPE, 1, DIMS, 16)                                    \
  X(SHAPE, 2, DIMS, 1)                                     \
  X(SHAPE, 2, DIMS, 4)                                     \
  X(SHAPE, 2, DIMS, 8)                                     \
  X(SHAPE, 2, DIMS, 16)                                    \
  X(SHAPE, 3, DIMS, 1)                                     \
  X(SHAPE, 3, DIMS, 4)                                     \
  X(SHAPE, 3, DIMS, 8)                                     \
  X(SHAPE, 3, DIMS, 16)                                    \
  X(SHAPE, 4, DIMS, 1)                                     \
  X(SHAPE, 4, DIMS, 4)                                     \
  X(SHAPE, 4, DIMS, 8)                                     \
  X(SHAPE, 4, DIMS, 16)

#define FPGASTENCIL_EXTERN_KERNEL(SHAPE, RAD, DIMS, PARVEC)             \
  extern template void                                                  \
  run_specialized<StencilShape::SHAPE, RAD, DIMS, PARVEC>(              \
      const BlockingPlan&, const BlockExtent&, const GridOf<DIMS>&,     \
      GridOf<DIMS>&, int, const float*, RunStats&,                      \
      const CancellationToken*);

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kStar, 2)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kStar, 3)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kBox, 2)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kBox, 3)

#undef FPGASTENCIL_EXTERN_KERNEL

}  // namespace fpga_stencil
