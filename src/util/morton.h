// 3D Morton (Z-order) codes, used to order points along the curve within each
// BRIO round of the Delaunay triangulation's insertion order and for
// cache-friendly particle ordering in the generators.
#pragma once

#include <cstdint>

namespace dtfe {

namespace detail {
/// Spread the low 21 bits of x so they occupy every third bit.
constexpr std::uint64_t spread3(std::uint64_t x) {
  x &= 0x1fffffull;
  x = (x | (x << 32)) & 0x1f00000000ffffull;
  x = (x | (x << 16)) & 0x1f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}
}  // namespace detail

/// Interleave three 21-bit coordinates into one 63-bit Morton key.
constexpr std::uint64_t morton_encode(std::uint32_t ix, std::uint32_t iy,
                                      std::uint32_t iz) {
  return detail::spread3(ix) | (detail::spread3(iy) << 1) |
         (detail::spread3(iz) << 2);
}

/// Morton key for a point in [lo, hi)^3 quantized to 21 bits per axis.
inline std::uint64_t morton_key(double x, double y, double z, double lo,
                                double inv_extent) {
  constexpr double scale = 2097151.0;  // 2^21 - 1
  auto q = [&](double v) -> std::uint32_t {
    double t = (v - lo) * inv_extent;
    if (t < 0.0) t = 0.0;
    if (t > 1.0) t = 1.0;
    return static_cast<std::uint32_t>(t * scale);
  };
  return morton_encode(q(x), q(y), q(z));
}

}  // namespace dtfe
