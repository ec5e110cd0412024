#include "sim/world.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sb::sim {

World::World(int32_t width, int32_t height, motion::RuleLibrary rules)
    : grid_(width, height), rules_(std::move(rules)) {}

lat::Neighborhood World::sense(lat::Vec2 center, int32_t radius) const {
  lat::Neighborhood window(center, radius, grid_.width(), grid_.height());
  // Row-filled from the SoA occupancy bytes: one packed bit row per window
  // row, no per-cell bounds branches (off-surface cells stay 0).
  const int32_t x0 = center.x - radius;
  const int32_t x_lo = std::max(x0, 0);
  const int32_t x_hi = std::min(center.x + radius, grid_.width() - 1);
  const int32_t y_lo = std::max(center.y - radius, 0);
  const int32_t y_hi = std::min(center.y + radius, grid_.height() - 1);
  for (int32_t y = y_lo; y <= y_hi; ++y) {
    const uint8_t* row = view().occupancy_row(y);
    uint32_t bits = 0;
    for (int32_t x = x_lo; x <= x_hi; ++x) {
      bits |= static_cast<uint32_t>(row[x]) << (x - x0);
    }
    window.set_row_bits(y - (center.y - radius), bits);
  }
  return window;
}

void World::apply(const motion::RuleApplication& app) {
  SB_EXPECTS(can_apply(app), "physically invalid motion: ", app.describe());
  const auto moves = app.world_moves();
  grid_.move_simultaneously(moves);
  elementary_moves_ += moves.size();
}

}  // namespace sb::sim
