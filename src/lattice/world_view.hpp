#pragma once
// WorldView: the one read surface over the world's state.
//
// Everything above the lattice layer (core/, motion/, check/, viz/) reads
// the surface through this facade instead of poking Grid and Module
// internals directly: occupancy and block positions come from the SoA
// columns in lat::WorldState, the module lifecycle columns (state tag,
// epoch, pending-move) are exposed read-only, and the Remark-1 physics
// queries (connectivity, single-line) are forwarded to the two-tier oracle
// in lattice/connectivity. The facade is a non-owning pointer-sized value:
// copy it freely, but never outlive the Grid it views.
//
// Mutations stay on Grid (place/remove/move_simultaneously) and on the
// simulator's column writers — WorldView deliberately has no mutating
// member, which is what makes the read surface auditable.

#include <array>
#include <utility>
#include <vector>

#include "lattice/grid.hpp"

namespace sb::lat {

class WorldView {
 public:
  explicit WorldView(const Grid& grid) : grid_(&grid) {}

  // -- surface dimensions ----------------------------------------------------

  [[nodiscard]] int32_t width() const { return grid_->width(); }
  [[nodiscard]] int32_t height() const { return grid_->height(); }
  [[nodiscard]] size_t cell_count() const { return grid_->cell_count(); }
  [[nodiscard]] bool in_bounds(Vec2 p) const { return grid_->in_bounds(p); }

  // -- occupancy (served from the SoA byte image) ----------------------------

  [[nodiscard]] bool occupied(Vec2 p) const {
    return grid_->in_bounds(p) && grid_->state().occupied(p);
  }
  [[nodiscard]] BlockId at(Vec2 p) const { return grid_->at(p); }

  /// Occupancy bytes of row `y` starting at x = 0 (one ring of padding on
  /// every side reads 0), for readers that scan rows wholesale, such as the
  /// invariant oracle's column check. Valid for y in [-1, height()].
  [[nodiscard]] const uint8_t* occupancy_row(int32_t y) const {
    return grid_->state().occupancy_row(y);
  }

  [[nodiscard]] int occupied_neighbor_count(Vec2 p) const {
    return grid_->occupied_neighbor_count(p);
  }
  [[nodiscard]] std::array<BlockId, 4> neighbors_of(Vec2 p) const {
    return grid_->neighbors_of(p);
  }

  // -- block id <-> position -------------------------------------------------

  [[nodiscard]] bool contains(BlockId id) const { return grid_->contains(id); }
  [[nodiscard]] Vec2 position_of(BlockId id) const {
    return grid_->position_of(id);
  }
  [[nodiscard]] size_t block_count() const { return grid_->block_count(); }
  [[nodiscard]] std::vector<BlockId> block_ids() const {
    return grid_->block_ids();
  }
  [[nodiscard]] std::vector<std::pair<BlockId, Vec2>> blocks() const {
    return grid_->blocks();
  }
  [[nodiscard]] size_t blocks_in_row(int32_t y) const {
    return grid_->blocks_in_row(y);
  }
  [[nodiscard]] size_t blocks_in_column(int32_t x) const {
    return grid_->blocks_in_column(x);
  }

  // -- module columns (written by the simulator, read by everyone) -----------

  [[nodiscard]] ModuleTag tag(BlockId id) const {
    return grid_->state().tag(id);
  }
  /// True when a live module program drives the block (kDead blocks remain
  /// on the surface as inert obstacles).
  [[nodiscard]] bool alive(BlockId id) const {
    return tag(id) == ModuleTag::kAlive;
  }
  /// The block's Algorithm-1 iteration counter (paper: IT), mirrored from
  /// its program; 0 for blocks without a program.
  [[nodiscard]] uint32_t epoch(BlockId id) const {
    return grid_->state().epoch(id);
  }
  /// True while the block has a motion in flight (request accepted, landing
  /// not yet applied).
  [[nodiscard]] bool move_pending(BlockId id) const {
    return grid_->state().move_pending(id);
  }
  [[nodiscard]] size_t pending_move_count() const {
    return grid_->state().pending_move_count();
  }

  // -- mutation journal ------------------------------------------------------

  [[nodiscard]] uint64_t version() const { return grid_->version(); }
  [[nodiscard]] const Vec2* last_change_cells() const {
    return grid_->last_change_cells();
  }
  [[nodiscard]] size_t last_change_count() const {
    return grid_->last_change_count();
  }
  [[nodiscard]] bool last_change_overflowed() const {
    return grid_->last_change_overflowed();
  }
  [[nodiscard]] uint64_t last_change_version() const {
    return grid_->last_change_version();
  }

  // -- Remark-1 physics queries (lattice/connectivity) -----------------------

  /// All blocks form one 4-connected component (cached; floods at most once
  /// per mutation).
  [[nodiscard]] bool connected() const;
  [[nodiscard]] bool connected_after_moves(
      const std::pair<Vec2, Vec2>* moves, size_t move_count) const;
  [[nodiscard]] bool connected_after_moves(
      const std::vector<std::pair<Vec2, Vec2>>& moves) const;
  [[nodiscard]] bool single_line() const;
  [[nodiscard]] bool single_line_after_moves(
      const std::pair<Vec2, Vec2>* moves, size_t move_count) const;
  [[nodiscard]] bool single_line_after_moves(
      const std::vector<std::pair<Vec2, Vec2>>& moves) const;

  /// Hint-free flood fill — the audit-grade answer the oracle compares the
  /// cached verdicts against. O(cells); never touches the caches.
  [[nodiscard]] bool connected_ground_truth() const;
  /// The grid's cached connectivity verdict (kUnknown when stale).
  [[nodiscard]] ConnectivityHint connectivity_hint() const {
    return grid_->own_connectivity_hint();
  }

  [[nodiscard]] const ConnectivityStats& connectivity_stats() const {
    return grid_->connectivity_stats();
  }

  /// The underlying grid, for the few call sites that must hand it to a
  /// mutating API (hot_join placement, trace replay). Reads should use the
  /// facade members above.
  [[nodiscard]] const Grid& grid() const { return *grid_; }

 private:
  const Grid* grid_;
};

}  // namespace sb::lat
