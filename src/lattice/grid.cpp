#include "lattice/grid.hpp"

#include <algorithm>

#include "lattice/connectivity.hpp"
#include "util/assert.hpp"

namespace sb::lat {

Grid::Grid(int32_t width, int32_t height)
    : width_(width), height_(height), state_(width, height) {
  SB_EXPECTS(width > 0 && height > 0, "grid dimensions must be positive, got ",
             width, "x", height);
  cells_.assign(cell_count(), kInvalidBlock);
  row_counts_.assign(static_cast<size_t>(height_), 0);
  col_counts_.assign(static_cast<size_t>(width_), 0);
}

Vec2 Grid::first_block_position() const {
  SB_EXPECTS(block_count_ > 0, "first_block_position on an empty grid");
  for (uint32_t v = 0; v < state_.id_capacity(); ++v) {
    const BlockId id{v};
    if (state_.has_position(id)) return state_.position(id);
  }
  SB_UNREACHABLE();
}

void Grid::place(BlockId id, Vec2 p) {
  SB_EXPECTS(id.valid(), "cannot place an invalid block id");
  // The id->position index (and the simulator's module table) are dense
  // arrays sized by the largest id, so wildly sparse ids would silently
  // allocate gigabytes. Scenario ids count from 1; reject outliers loudly.
  SB_EXPECTS(id.value <= kMaxBlockIdValue, "block id ", id,
             " exceeds the dense-id limit (", kMaxBlockIdValue,
             "); renumber the scenario's blocks");
  SB_EXPECTS(in_bounds(p), "place ", id, " out of bounds at ", p);
  SB_EXPECTS(!cells_[index(p)].valid(), "cell ", p, " already holds ",
             cells_[index(p)]);
  SB_EXPECTS(!state_.has_position(id), "block ", id,
             " is already on the surface");
  // Hint update before mutating: attaching to an occupied neighbor keeps a
  // connected configuration connected; landing detached decides the hint
  // outright (or, from a disconnected state, may bridge components). The
  // padded occupancy image reads 0 beyond the surface edge.
  bool attaches = false;
  for (Direction d : all_directions()) {
    attaches = attaches || state_.occupied(p + delta(d));
  }
  cells_[index(p)] = id;
  state_.set_occupied(p, true);
  state_.set_position(id, p);
  ++block_count_;
  ++row_counts_[static_cast<size_t>(p.y)];
  ++col_counts_[static_cast<size_t>(p.x)];
  journal_begin();
  journal_touch(p);
  if (block_count_ <= 1) {
    conn_ = ConnectivityHint::kConnected;
  } else if (conn_ == ConnectivityHint::kConnected) {
    conn_ = attaches ? ConnectivityHint::kConnected
                     : ConnectivityHint::kDisconnected;
  } else if (conn_ == ConnectivityHint::kDisconnected && attaches) {
    conn_ = ConnectivityHint::kUnknown;  // may have bridged components
  }
}

BlockId Grid::remove(Vec2 p) {
  SB_EXPECTS(in_bounds(p), "remove out of bounds at ", p);
  const BlockId id = cells_[index(p)];
  SB_EXPECTS(id.valid(), "cell ", p, " is empty");
  // Evaluate the local rule while the block is still present.
  ConnectivityHint next = ConnectivityHint::kUnknown;
  if (block_count_ <= 2) {
    next = ConnectivityHint::kConnected;  // <=1 block remains
  } else if (conn_ == ConnectivityHint::kConnected &&
             local_removal_check(*this, p) ==
                 LocalVerdict::kPreservesConnectivity) {
    next = ConnectivityHint::kConnected;
  }
  cells_[index(p)] = kInvalidBlock;
  state_.set_occupied(p, false);
  state_.clear_position(id);
  --block_count_;
  --row_counts_[static_cast<size_t>(p.y)];
  --col_counts_[static_cast<size_t>(p.x)];
  journal_begin();
  journal_touch(p);
  conn_ = next;
  return id;
}

void Grid::move(Vec2 from, Vec2 to) {
  move_simultaneously({{from, to}});
}

void Grid::move_simultaneously(
    const std::vector<std::pair<Vec2, Vec2>>& moves) {
  // Hint update, evaluated on the pre-move configuration: a batch whose net
  // effect is one vacated and one filled cell is decided by the local rule;
  // anything wider falls back to kUnknown (the next is_connected floods).
  ConnectivityHint next = ConnectivityHint::kUnknown;
  if (conn_ == ConnectivityHint::kConnected) {
    const NetMoveEffect net = net_move_effect(moves.data(), moves.size());
    if (net.vacated_count == 0 && net.landed_count == 0) {
      next = ConnectivityHint::kConnected;  // pure handover cycle
    } else if (block_count_ <= 1) {
      next = ConnectivityHint::kConnected;
    } else if (net.vacated_count == 1 && net.landed_count == 1) {
      switch (local_move_check(*this, net.vacated, net.landed)) {
        case LocalVerdict::kPreservesConnectivity:
          next = ConnectivityHint::kConnected;
          break;
        case LocalVerdict::kDisconnects:
          next = ConnectivityHint::kDisconnected;
          break;
        case LocalVerdict::kInconclusive:
          break;
      }
    }
  } else if (conn_ == ConnectivityHint::kDisconnected) {
    // Moving one block can reconnect a split configuration; stay unknown
    // only when that is possible (any move at all).
    next = moves.empty() ? ConnectivityHint::kDisconnected
                         : ConnectivityHint::kUnknown;
  }

  // Phase 1: lift all movers off the surface.
  std::vector<std::pair<BlockId, Vec2>> landing;
  landing.reserve(moves.size());
  journal_begin();
  for (const auto& [from, to] : moves) {
    SB_EXPECTS(in_bounds(from) && in_bounds(to), "move ", from, " -> ", to,
               " leaves the surface");
    const BlockId id = cells_[index(from)];
    SB_EXPECTS(id.valid(), "move source ", from, " is empty");
    cells_[index(from)] = kInvalidBlock;
    state_.set_occupied(from, false);
    --row_counts_[static_cast<size_t>(from.y)];
    --col_counts_[static_cast<size_t>(from.x)];
    journal_touch(from);
    landing.emplace_back(id, to);
  }
  // Phase 2: land them. After lifting, destinations must all be free; this
  // accepts handovers (A -> B while B -> C) and rejects true collisions.
  for (const auto& [id, to] : landing) {
    SB_EXPECTS(!cells_[index(to)].valid(), "move destination ", to,
               " is occupied after lifting movers");
    cells_[index(to)] = id;
    state_.set_occupied(to, true);
    state_.set_position(id, to);
    ++row_counts_[static_cast<size_t>(to.y)];
    ++col_counts_[static_cast<size_t>(to.x)];
    journal_touch(to);
  }
  conn_ = next;
}

}  // namespace sb::lat
