// Small integer-math helpers shared by the blocking planner, resource
// models, and performance model.
#pragma once

#include <cstdint>
#include <type_traits>

namespace fpga_stencil {

/// Ceiling division for non-negative integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return (a + b - 1) / b;
}

/// Rounds `a` up to the nearest multiple of `m` (m > 0).
template <typename T>
constexpr T round_up(T a, T m) {
  static_assert(std::is_integral_v<T>);
  return ceil_div(a, m) * m;
}

/// Rounds `a` down to the nearest multiple of `m` (m > 0).
template <typename T>
constexpr T round_down(T a, T m) {
  static_assert(std::is_integral_v<T>);
  return (a / m) * m;
}

/// True if `a` is an exact multiple of `m`.
template <typename T>
constexpr bool is_multiple(T a, T m) {
  return m != 0 && a % m == 0;
}

/// Clamps an index into [lo, hi]. This is the paper's boundary condition:
/// "all out-of-bound neighboring cells correctly fall back on the cell that
/// is on the border."
constexpr std::int64_t clamp_index(std::int64_t i, std::int64_t lo,
                                   std::int64_t hi) {
  return i < lo ? lo : (i > hi ? hi : i);
}

/// Wraps an index into [0, n): the periodic boundary condition.
constexpr std::int64_t wrap_index(std::int64_t i, std::int64_t n) {
  const std::int64_t m = i % n;
  return m < 0 ? m + n : m;
}

/// Mirrors an index about the boundary cell: -k -> k, n-1+k -> n-1-k (the
/// reflective boundary condition; the edge cell is not duplicated). A
/// single reflection, so callers validate n > the reach of any tap.
constexpr std::int64_t mirror_index(std::int64_t i, std::int64_t n) {
  if (i < 0) return -i;
  if (i >= n) return 2 * n - 2 - i;
  return i;
}

/// True if `v` is a power of two (v > 0).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace fpga_stencil
