#include "motion/apply.hpp"

#include <algorithm>

#include "lattice/world_view.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"

namespace sb::motion {

std::vector<RuleApplication> enumerate_applications(
    const RuleLibrary& library, const lat::Neighborhood& window,
    lat::Vec2 mover) {
  std::vector<RuleApplication> out;
  const int32_t window_radius = window.radius();
  const lat::Vec2 window_center = window.center();
  const int32_t surface_w = window.surface_width();
  const int32_t surface_h = window.surface_height();
  for (const MotionRule& rule : library.rules()) {
    const int32_t size = rule.size();
    const int32_t center = size / 2;
    // The bitboard lift needs the whole anchored square inside the window;
    // sensing_radius() guarantees that for anchors reachable from the
    // window center, so the fallback only serves unusual test setups (and
    // oversized matrices, whose masks would overflow 64 bits).
    const int32_t reach = window_radius - center;
    const uint32_t col_mask = (uint32_t{1} << size) - 1;
    const RuleMasks& masks = rule.masks();
    for (size_t i = 0; i < rule.moves().size(); ++i) {
      const lat::Vec2 offset = world_offset(size, rule.moves()[i].from);
      const lat::Vec2 anchor = mover - offset;
      if (!rule.masks_valid() ||
          std::abs(anchor.x - window_center.x) > reach ||
          std::abs(anchor.y - window_center.y) > reach) {
        if (rule_applicable(rule, window, anchor)) {
          out.push_back(RuleApplication{&rule, anchor, i});
        }
        continue;
      }
      // Lift the size x size square at `anchor` into presence and bounds
      // bitboards (bit = row * size + col, row 0 = north) with one shift
      // per matrix row.
      const int32_t x0 = anchor.x - center;  // world x of matrix col 0
      const int32_t c0 = x0 - (window_center.x - window_radius);
      const int32_t in_lo = std::max(0, -x0);
      const int32_t in_hi = std::min(size - 1, surface_w - 1 - x0);
      const uint32_t in_cols =
          in_hi >= in_lo
              ? ((uint32_t{1} << (in_hi - in_lo + 1)) - 1) << in_lo
              : 0;
      uint64_t presence = 0;
      uint64_t in_bounds = 0;
      for (int32_t r = 0; r < size; ++r) {
        const int32_t y = anchor.y + center - r;
        const int32_t wr = y - (window_center.y - window_radius);
        presence |= static_cast<uint64_t>((window.row_bits(wr) >> c0) &
                                          col_mask)
                    << (r * size);
        if (y >= 0 && y < surface_h) {
          in_bounds |= static_cast<uint64_t>(in_cols) << (r * size);
        }
      }
      if ((in_bounds & masks.bounds) == masks.bounds &&
          (presence & masks.occupied) == masks.occupied &&
          (presence & masks.empty) == 0) {
        out.push_back(RuleApplication{&rule, anchor, i});
      }
    }
  }
  return out;
}

lat::Vec2 RuleApplication::subject_from() const {
  SB_EXPECTS(rule != nullptr && subject_move < rule->moves().size());
  return rule->world_cell(anchor, rule->moves()[subject_move].from);
}

lat::Vec2 RuleApplication::subject_to() const {
  SB_EXPECTS(rule != nullptr && subject_move < rule->moves().size());
  return rule->world_cell(anchor, rule->moves()[subject_move].to);
}

std::vector<std::pair<lat::Vec2, lat::Vec2>> RuleApplication::world_moves()
    const {
  SB_EXPECTS(rule != nullptr);
  return rule->world_moves(anchor);
}

void RuleApplication::world_moves_into(
    std::vector<std::pair<lat::Vec2, lat::Vec2>>& out) const {
  SB_EXPECTS(rule != nullptr);
  rule->world_moves_into(anchor, out);
}

std::string RuleApplication::describe() const {
  if (rule == nullptr) return "<empty application>";
  return fmt("{}@{} moving {}->{}", rule->name(), anchor, subject_from(),
             subject_to());
}

std::vector<std::pair<lat::Vec2, lat::Vec2>>& move_scratch() {
  thread_local std::vector<std::pair<lat::Vec2, lat::Vec2>> scratch;
  return scratch;
}

bool physically_valid(const lat::Grid& grid, const RuleApplication& app) {
  SB_EXPECTS(app.rule != nullptr);
  if (!rule_applicable(*app.rule, lat::WorldView(grid), app.anchor)) {
    return false;
  }
  // Per-candidate scratch: probes run at election rates, so the move list
  // reuses one thread-local buffer and the two Remark-1 checks are O(1)
  // (single-line via row/column counts, connectivity via the local rule,
  // falling back to the stamped flood only when inconclusive).
  auto& moves = move_scratch();
  app.world_moves_into(moves);
  if (lat::single_line_after_moves(grid, moves.data(), moves.size())) {
    return false;
  }
  if (!lat::connected_after_moves(grid, moves.data(), moves.size())) {
    return false;
  }
  return true;
}

void apply_to_grid(lat::Grid& grid, const RuleApplication& app) {
  grid.move_simultaneously(app.world_moves());
}

}  // namespace sb::motion
