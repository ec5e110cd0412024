#include "lattice/world_view.hpp"

#include "lattice/connectivity.hpp"

namespace sb::lat {

std::vector<BlockId> WorldView::block_ids() const {
  const WorldState& state = grid_->state_;
  std::vector<BlockId> ids;
  ids.reserve(block_count());
  for (uint32_t v = 0; v < state.id_capacity(); ++v) {
    if (state.has_position(BlockId{v})) ids.push_back(BlockId{v});
  }
  return ids;
}

std::vector<std::pair<BlockId, Vec2>> WorldView::blocks() const {
  const WorldState& state = grid_->state_;
  std::vector<std::pair<BlockId, Vec2>> out;
  out.reserve(block_count());
  for (uint32_t v = 0; v < state.id_capacity(); ++v) {
    const BlockId id{v};
    if (state.has_position(id)) out.emplace_back(id, state.position(id));
  }
  return out;
}

bool WorldView::connected() const { return is_connected(*grid_); }

bool WorldView::connected_after_moves(const std::pair<Vec2, Vec2>* moves,
                                      size_t move_count,
                                      bool* flooded_out) const {
  return lat::connected_after_moves(*grid_, moves, move_count, flooded_out);
}

bool WorldView::connected_after_moves(
    const std::vector<std::pair<Vec2, Vec2>>& moves) const {
  return lat::connected_after_moves(*grid_, moves.data(), moves.size());
}

bool WorldView::single_line_after_moves(const std::pair<Vec2, Vec2>* moves,
                                        size_t move_count) const {
  return lat::single_line_after_moves(*grid_, moves, move_count);
}

bool WorldView::single_line_after_moves(
    const std::vector<std::pair<Vec2, Vec2>>& moves) const {
  return lat::single_line_after_moves(*grid_, moves.data(), moves.size());
}

bool WorldView::connected_ground_truth() const {
  return is_connected_ground_truth(*grid_);
}

}  // namespace sb::lat
