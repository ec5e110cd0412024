#pragma once
// Rule applicability checks — the paper's MM (x) MP validation plus the
// surface-bounds constraint.
//
// The checks are templated over an occupancy view so the same code serves
// both the real surface (lat::WorldView, for physics) and a block's bounded
// sensing window (lat::Neighborhood, for the algorithm). A View provides:
//   bool occupied(lat::Vec2) const;   // out-of-surface cells report empty
//   bool in_bounds(lat::Vec2) const;  // true for real surface cells

#include "lattice/vec2.hpp"
#include "motion/rule.hpp"
#include "motion/truth_table.hpp"

namespace sb::motion {

/// True when all matrix cells that take part in the motion (codes 1, 3, 4,
/// 5) fall on real surface cells. Don't-care and remains-empty cells may
/// extend beyond the surface edge (there is simply nothing there).
template <typename View>
[[nodiscard]] bool placement_in_bounds(const MotionRule& rule,
                                       const View& view, lat::Vec2 anchor) {
  for (int32_t row = 0; row < rule.size(); ++row) {
    for (int32_t col = 0; col < rule.size(); ++col) {
      const MatrixCoord mc{row, col};
      const EventCode code = rule.matrix().at(mc);
      if (code == EventCode::kAny || code == EventCode::kRemainsEmpty) {
        continue;
      }
      if (!view.in_bounds(rule.world_cell(anchor, mc))) return false;
    }
  }
  return true;
}

/// The paper's validation: captures the presence matrix under the anchored
/// rule and applies Table II entry-wise (Eq (3) style).
template <typename View>
[[nodiscard]] ValidationMatrix validate_placement(const MotionRule& rule,
                                                  const View& view,
                                                  lat::Vec2 anchor) {
  const PresenceMatrix mp =
      PresenceMatrix::capture(view, anchor, rule.size());
  return combine(rule.matrix(), mp);
}

/// Full applicability: in-bounds placement and an all-valid MM (x) MP.
template <typename View>
[[nodiscard]] bool rule_applicable(const MotionRule& rule, const View& view,
                                   lat::Vec2 anchor) {
  if (!placement_in_bounds(rule, view, anchor)) return false;
  return validate_placement(rule, view, anchor).all_valid();
}

}  // namespace sb::motion
