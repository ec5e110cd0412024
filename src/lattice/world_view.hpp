#pragma once
// WorldView: the one read API over the world's state.
//
// Reads go through WorldView; mutations go through Grid (place, remove,
// move_simultaneously) and the simulator's tag writer. The facade reads
// Grid's storage directly (it is a friend): per-cell occupancy and block
// ids from the cell array, whole occupancy rows from the padded byte image,
// positions and liveness tags from the lat::WorldState columns; the
// Remark-1 physics queries (connectivity, single-line) go to the two-tier
// oracle in lattice/connectivity. It is a non-owning pointer-sized value:
// copy it freely, but never outlive the Grid it views.

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

  // -- occupancy -------------------------------------------------------------

  /// Block at a cell; kInvalidBlock when empty or out of bounds.
  [[nodiscard]] BlockId at(Vec2 p) const {
    return in_bounds(p) ? grid_->cells_[grid_->index(p)] : kInvalidBlock;
  }
  /// True when the cell holds a block. Out-of-bounds cells read as empty:
  /// physically there is nothing beyond the surface. Served from the cell
  /// array, so tests can check the occupancy image against it.
  [[nodiscard]] bool occupied(Vec2 p) const { return at(p).valid(); }

  /// Occupancy bytes of row `y` starting at x = 0 (one ring of padding on
  /// every side reads 0), for readers that scan rows wholesale, such as the
  /// invariant oracle's column check. Valid for y in [-1, height()].
  [[nodiscard]] const uint8_t* occupancy_row(int32_t y) const {
    return grid_->state_.occupancy_row(y);
  }

  /// Number of occupied 4-neighbors (the "support" count).
  [[nodiscard]] int occupied_neighbor_count(Vec2 p) const {
    int count = 0;
    for (Direction d : all_directions()) count += occupied(p + delta(d));
    return count;
  }
  /// Ids of the 4-neighbors of `p`, in N,E,S,W order; absent sides yield
  /// kInvalidBlock.
  [[nodiscard]] std::array<BlockId, 4> neighbors_of(Vec2 p) const {
    std::array<BlockId, 4> out{};
    for (Direction d : all_directions()) {
      out[static_cast<size_t>(d)] = at(p + delta(d));
    }
    return out;
  }

  // -- block id <-> position -------------------------------------------------

  [[nodiscard]] bool contains(BlockId id) const {
    return grid_->state_.has_position(id);
  }
  /// Position of a block; the block must be on the surface. O(1).
  [[nodiscard]] Vec2 position_of(BlockId id) const {
    SB_EXPECTS(contains(id), "block ", id, " is not on the surface");
    return grid_->state_.position(id);
  }
  [[nodiscard]] size_t block_count() const { return grid_->block_count(); }
  /// Blocks in deterministic (id) order.
  [[nodiscard]] std::vector<BlockId> block_ids() const;
  /// Snapshot of (id, position) pairs in id order. Built on demand — O(max
  /// id); fine for setup, rendering, and connectivity scans, not for
  /// per-event paths (use position_of).
  [[nodiscard]] std::vector<std::pair<BlockId, Vec2>> blocks() const;
  [[nodiscard]] size_t blocks_in_row(int32_t y) const {
    return grid_->blocks_in_row(y);
  }
  [[nodiscard]] size_t blocks_in_column(int32_t x) const {
    return grid_->blocks_in_column(x);
  }

  // -- liveness (the tag column, written by the simulator) -------------------

  /// Ids the SoA columns cover: every id at or above it is off the
  /// surface and kUnregistered.
  [[nodiscard]] size_t id_capacity() const {
    return grid_->state_.id_capacity();
  }
  [[nodiscard]] ModuleTag tag(BlockId id) const {
    return grid_->state_.tag(id);
  }
  /// True when a live module program drives the block (kDead blocks remain
  /// on the surface as inert obstacles).
  [[nodiscard]] bool alive(BlockId id) const {
    return tag(id) == ModuleTag::kAlive;
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
  /// `flooded_out` as in lat::connected_after_moves.
  [[nodiscard]] bool connected_after_moves(const std::pair<Vec2, Vec2>* moves,
                                           size_t move_count,
                                           bool* flooded_out = nullptr) const;
  [[nodiscard]] bool connected_after_moves(
      const std::vector<std::pair<Vec2, Vec2>>& moves) const;
  [[nodiscard]] bool single_line_after_moves(
      const std::pair<Vec2, Vec2>* moves, size_t move_count) const;
  [[nodiscard]] bool single_line_after_moves(
      const std::vector<std::pair<Vec2, Vec2>>& moves) const;

  /// Hint-free flood fill — the audit-grade answer the oracle compares the
  /// cached verdicts against. O(cells); never touches the caches.
  [[nodiscard]] bool connected_ground_truth() const;
  /// The grid's cached connectivity verdict (kUnknown when stale).
  [[nodiscard]] ConnectivityHint connectivity_hint() const {
    return grid_->connectivity_hint();
  }

  [[nodiscard]] ConnectivityStats connectivity_stats() const {
    return grid_->connectivity_stats();
  }

 private:
  const Grid* grid_;
};

}  // namespace sb::lat
