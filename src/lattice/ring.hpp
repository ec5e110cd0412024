#pragma once
// The 8-cell ring around a cell and its occupancy mask.
//
// Ring cells are numbered in cyclic order N, NE, E, SE, S, SW, W, NW; bit i
// of a ring mask is ring cell i. Consecutive ring cells are 4-adjacent to
// each other, which the connectivity mask rule relies on
// (lattice/connectivity.cpp). The same numbering indexes the rule
// library's may-move table (motion/rule_library.hpp), which the motion
// planner probes before it searches for a move.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "lattice/vec2.hpp"

namespace sb::lat {

/// Offsets of the ring cells from the centre; bit i of a ring mask is
/// kRing[i].
inline constexpr std::array<Vec2, 8> kRing = {
    Vec2{0, 1},  Vec2{1, 1},   Vec2{1, 0},  Vec2{1, -1},
    Vec2{0, -1}, Vec2{-1, -1}, Vec2{-1, 0}, Vec2{-1, 1},
};

namespace detail {

/// One byte load per ring cell, unrolled at compile time (GCC keeps a plain
/// loop over kRing rolled at -O2): `rows` holds the rows y + 1, y and
/// y - 1, so ring cell (dx, dy) is rows[1 - dy][x + dx].
template <size_t... I>
[[nodiscard]] constexpr uint8_t ring_mask(
    const std::array<const uint8_t*, 3>& rows, int32_t x,
    std::index_sequence<I...>) {
  return static_cast<uint8_t>(
      ((static_cast<uint32_t>(
            rows[static_cast<size_t>(1 - kRing[I].y)][x + kRing[I].x])
        << I) |
       ...));
}

}  // namespace detail

/// Ring mask of cell `x` of row y, read from three padded occupancy rows of
/// lat::WorldState: `up` is row y + 1, `mid` row y, `dn` row y - 1. The
/// padding reads 0, so off-surface ring cells count as empty and edge
/// cells need no bounds branches.
[[nodiscard]] inline uint8_t ring_mask(const uint8_t* up, const uint8_t* mid,
                                       const uint8_t* dn, int32_t x) {
  return detail::ring_mask({up, mid, dn}, x,
                           std::make_index_sequence<kRing.size()>{});
}

}  // namespace sb::lat
