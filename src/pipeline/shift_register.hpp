// HLS-style shift register.
//
// On the FPGA the spatial-blocking buffer is a shift register inferred into
// Block RAM: every cycle `parvec` new cells enter at the tail and the whole
// register shifts by `parvec`; the stencil taps fixed logical offsets. This
// class reproduces those semantics exactly while storing the data in a ring
// buffer, so a shift is O(parvec) instead of O(size).
//
// Logical index convention: 0 is the oldest element, size()-1 the newest.
// After shift_in(v[0..p)), tap(size()-p+i) == v[i].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.hpp"

namespace fpga_stencil {

template <typename T>
class ShiftRegister {
 public:
  /// `size` total cells, shifted by `shift_width` cells per cycle.
  ShiftRegister(std::int64_t size, std::int64_t shift_width)
      : size_(size), shift_width_(shift_width),
        data_(static_cast<std::size_t>(size), T{}) {
    FPGASTENCIL_EXPECT(size > 0, "shift register must be non-empty");
    FPGASTENCIL_EXPECT(shift_width > 0 && shift_width <= size,
                       "shift width must be in [1, size]");
  }

  [[nodiscard]] std::int64_t size() const { return size_; }
  [[nodiscard]] std::int64_t shift_width() const { return shift_width_; }

  /// One pipeline cycle: shifts by shift_width and loads `values` at the
  /// tail (logical indices [size - shift_width, size)).
  void shift_in(std::span<const T> values) {
    FPGASTENCIL_ASSERT(std::int64_t(values.size()) == shift_width_,
                       "shift_in width mismatch");
    // The ring's head marks the oldest element; overwriting the oldest
    // shift_width slots and advancing the head is exactly a shift.
    for (std::int64_t i = 0; i < shift_width_; ++i) {
      data_[static_cast<std::size_t>(physical(i))] = values[size_t(i)];
    }
    head_ += shift_width_;
    if (head_ >= size_) head_ -= size_;
  }

  /// Reads the element at logical index `i` (0 = oldest).
  [[nodiscard]] const T& tap(std::int64_t i) const {
    FPGASTENCIL_ASSERT(i >= 0 && i < size_, "tap index out of range");
    return data_[static_cast<std::size_t>(physical(i))];
  }

  /// Resets contents to T{} (block-pass boundaries).
  void clear() {
    std::fill(data_.begin(), data_.end(), T{});
    head_ = 0;
  }

 private:
  [[nodiscard]] std::int64_t physical(std::int64_t logical) const {
    std::int64_t p = head_ + logical;
    if (p >= size_) p -= size_;
    return p;
  }

  std::int64_t size_;
  std::int64_t shift_width_;
  std::int64_t head_ = 0;
  std::vector<T> data_;
};

/// Structure-of-arrays shift-register variant: a ring of `depth` whole
/// planes (one z-plane in 3D, one x-row in 2D) over caller-owned storage.
///
/// ShiftRegister models the FPGA's cell-granular window: one flat ring,
/// taps addressed by flat logical offset, a bounds check per access. The
/// specialized kernels (src/kernels) instead retire a whole plane per
/// streamed index and address taps as `plane base + row offset + dx`, so
/// the natural layout is plane-granular: plane p of the stream lives in
/// ring slot p mod depth, and a window of the last `depth` planes is
/// always resident. Retiring plane p implicitly evicts plane p - depth --
/// there is no shift, which is what makes the per-lane inner loops
/// contiguous and vectorizable.
///
/// Non-owning: `storage` must hold depth * plane_cells elements and
/// outlive the view (the array kernel carves these out of its
/// thread-local slab).
template <typename T>
class PlanarShiftRegister {
 public:
  PlanarShiftRegister(T* storage, std::int64_t depth, std::int64_t plane_cells)
      : storage_(storage), depth_(depth), plane_cells_(plane_cells) {
    FPGASTENCIL_EXPECT(storage != nullptr, "planar SR needs storage");
    FPGASTENCIL_EXPECT(depth > 0, "planar SR depth must be positive");
    FPGASTENCIL_EXPECT(plane_cells > 0, "planar SR planes must be non-empty");
  }

  [[nodiscard]] std::int64_t depth() const { return depth_; }
  [[nodiscard]] std::int64_t plane_cells() const { return plane_cells_; }

  /// Slot of stream plane `stream_index` (>= 0). Writing slot p evicts
  /// plane p - depth; reading is valid for the last `depth` planes
  /// written, which the kernels' clamped window accesses never leave.
  [[nodiscard]] T* plane(std::int64_t stream_index) {
    FPGASTENCIL_ASSERT(stream_index >= 0, "planar SR index negative");
    return storage_ + (stream_index % depth_) * plane_cells_;
  }
  [[nodiscard]] const T* plane(std::int64_t stream_index) const {
    FPGASTENCIL_ASSERT(stream_index >= 0, "planar SR index negative");
    return storage_ + (stream_index % depth_) * plane_cells_;
  }

 private:
  T* storage_;
  std::int64_t depth_;
  std::int64_t plane_cells_;
};

}  // namespace fpga_stencil
