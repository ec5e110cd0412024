#pragma once
// The distance metric of the paper's Eqs (6) and (8)-(10).
//
// dBO is the number of hops from a block B to the output O:
//   Eq (8): +inf when B is aligned (same row or column) with O - the block
//           has joined the path and must stay; we scope this to the I/O
//           rectangle and exempt blocks at one hop of O (see DESIGN.md,
//           interpretation note 1);
//   Eq (9): +inf when B has no physically valid improving move (evaluated
//           by the MotionPlanner, which owns the full eligibility check);
//   Eq (10): the Manhattan distance |Ox-Bx| + |Oy-By| otherwise.

#include <cstdint>

#include "lattice/region.hpp"
#include "lattice/vec2.hpp"

namespace sb::core {

/// Sentinel for the paper's +inf distances.
inline constexpr int32_t kInfiniteDistance = INT32_MAX;

/// Distance penalty carried by tier-2 "repositioning" candidates (blocks
/// with no strictly improving move, offering a tabu-guarded sideways hop
/// instead). Any tier-1 candidate therefore wins an election against every
/// tier-2 candidate, and tier-2 distances remain mutually comparable.
inline constexpr int32_t kRepositionPenalty = 1'000'000;

/// Which cells count as "the path" for Eq (8)'s freezing.
enum class PathShape {
  /// The paper's rule: any cell aligned (row or column) with O inside the
  /// I/O rectangle. Constructs paths when I and O share a row or column
  /// (the paper's demonstrated case).
  kAlignedWithOutput,
  /// Extension (DESIGN.md finding 8): the canonical monotone L-path -
  /// x varies first along I's row, then y along O's column. Makes diagonal
  /// I/O placements constructible.
  kCanonicalMonotone,
};

struct DistanceParams {
  lat::Vec2 input;
  lat::Vec2 output;
  /// Apply Eq (8) freezing (on in the paper; switchable for the
  /// free-motion baseline of [14]).
  bool freeze_aligned = true;
  PathShape path_shape = PathShape::kAlignedWithOutput;
};

/// True when `pos` belongs to the path cells Eq (8) freezes (the input
/// cell always does).
[[nodiscard]] constexpr bool is_path_cell(lat::Vec2 pos,
                                          const DistanceParams& params) {
  if (pos == params.input) return true;
  const lat::Rect rect = lat::bounding_rect(params.input, params.output);
  if (!rect.contains(pos)) return false;
  switch (params.path_shape) {
    case PathShape::kAlignedWithOutput:
      return pos.x == params.output.x || pos.y == params.output.y;
    case PathShape::kCanonicalMonotone:
      return pos.y == params.input.y || pos.x == params.output.x;
  }
  return false;
}

/// The geometric part of dBO: Eq (8) + Eq (10). Eq (9) - move existence -
/// is layered on top by the MotionPlanner.
[[nodiscard]] constexpr int32_t base_distance(lat::Vec2 pos,
                                              const DistanceParams& params) {
  const int32_t m = manhattan(pos, params.output);
  if (m == 0) return 0;
  if (params.freeze_aligned && m > 1 && is_path_cell(pos, params)) {
    return kInfiniteDistance;  // Eq (8): the block has joined the path
  }
  return m;  // Eq (10)
}

/// Eq (6): the Root's initial ShortestDistance estimate.
[[nodiscard]] constexpr int32_t initial_shortest_distance(
    lat::Vec2 input, lat::Vec2 output) {
  return manhattan(input, output);
}

}  // namespace sb::core
