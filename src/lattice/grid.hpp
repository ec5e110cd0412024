#pragma once
// Occupancy grid for the modular surface (paper §III, Fig. 2).
//
// The grid owns the surface's storage — the cell array (which block, if
// any, sits on each cell) and the lat::WorldState columns (positions by id,
// the padded occupancy bytes, the liveness tags) — and is the only writer
// of it: place/remove/move keep every store in lock-step. Reads go through
// lat::WorldView (lattice/world_view.hpp), which is a friend and serves
// occupancy, ids and positions straight from this storage. The id ->
// position columns are dense arrays indexed by id, so per-event lookups are
// O(1); ids are expected to be small and near-contiguous, as the scenario
// generators produce them.
//
// Beyond raw occupancy the grid maintains O(1)-updatable derived state that
// the motion-validation hot path consumes (see lattice/connectivity.hpp):
//   - per-row / per-column block counts (the single-line test of Remark 1
//     becomes O(#moves) instead of O(N));
//   - a cached connectivity verdict ("hint"), kept alive across mutations
//     whose local neighborhood proves they preserve connectivity, so the
//     scratch-buffer flood runs at most once per grid change;
//   - a bounded journal of the cells touched by the latest mutation plus a
//     monotonic version counter, which each block's planner memo
//     (core::PlannerMemo) reads to tell whether the last move came near it;
//   - fast-path / slow-path counters for the connectivity checks (reported
//     through SessionResult and the BENCH_sim.json schema).

#include <array>
#include <utility>
#include <vector>

#include "lattice/block_id.hpp"
#include "lattice/direction.hpp"
#include "lattice/vec2.hpp"
#include "lattice/world_state.hpp"
#include "util/assert.hpp"
#include "util/parallel_counter.hpp"

namespace sb::lat {

/// Cached connectivity verdict. kConnected/kDisconnected are authoritative;
/// kUnknown means the next is_connected() call must flood.
enum class ConnectivityHint : uint8_t { kUnknown, kConnected, kDisconnected };

/// Snapshot of the two tiers of the connectivity oracle: probes answered by
/// the O(1) local-neighborhood rule vs. full scratch-buffer floods.
struct ConnectivityStats {
  uint64_t fast_path_hits = 0;
  uint64_t slow_path_floods = 0;

  /// Fraction of probes answered without a flood (1.0 when nothing ran).
  [[nodiscard]] double fast_path_rate() const {
    const uint64_t total = fast_path_hits + slow_path_floods;
    return total == 0 ? 1.0
                      : static_cast<double>(fast_path_hits) /
                            static_cast<double>(total);
  }
};

class Grid {
 public:
  /// Creates an empty surface of `width` x `height` cells (paper: W, H).
  Grid(int32_t width, int32_t height);

  [[nodiscard]] int32_t width() const { return width_; }
  [[nodiscard]] int32_t height() const { return height_; }
  [[nodiscard]] size_t cell_count() const {
    return static_cast<size_t>(width_) * static_cast<size_t>(height_);
  }

  [[nodiscard]] bool in_bounds(Vec2 p) const {
    return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
  }

  /// Row-major index of an in-bounds cell; the flood scratch buffers in
  /// lattice/connectivity.cpp address cells by this index.
  [[nodiscard]] size_t cell_index(Vec2 p) const {
    SB_EXPECTS(in_bounds(p), "cell_index out of bounds at ", p);
    return index(p);
  }

  /// Occupancy by raw cell index (no bounds re-check).
  [[nodiscard]] bool occupied_index(size_t cell) const {
    return cells_[cell].valid();
  }

  /// The SoA column store backing this grid (positions, occupancy bytes,
  /// liveness tags). Read it through lat::WorldView; the mutable overload
  /// exists for the simulator's tag writer only.
  [[nodiscard]] const WorldState& state() const { return state_; }
  [[nodiscard]] WorldState& mutable_state() { return state_; }

  [[nodiscard]] size_t block_count() const { return block_count_; }

  /// Number of blocks currently in row y / column x. O(1).
  [[nodiscard]] size_t blocks_in_row(int32_t y) const {
    return row_counts_[static_cast<size_t>(y)];
  }
  [[nodiscard]] size_t blocks_in_column(int32_t x) const {
    return col_counts_[static_cast<size_t>(x)];
  }

  /// Position of the lowest-id block, without building the
  /// WorldView::blocks() snapshot (flood-fill seeds on the connectivity hot
  /// path). The grid must be non-empty.
  [[nodiscard]] Vec2 first_block_position() const;

  /// Largest accepted id value: the id->position index is dense, so ids
  /// must be reasonably small (scenario generators count from 1). 2^26 ids
  /// bound the index at 512 MB — far above the paper's 2M-module scale but
  /// a loud error instead of a silent multi-gigabyte allocation.
  static constexpr uint32_t kMaxBlockIdValue = (1u << 26) - 1;

  /// Places a new block. The cell must be empty and the id unused.
  void place(BlockId id, Vec2 p);

  /// Removes the block at `p` (must be occupied). Returns its id.
  BlockId remove(Vec2 p);

  /// Moves the block at `from` to the empty cell `to` (both in bounds).
  void move(Vec2 from, Vec2 to);

  /// Applies several moves as one atomic step (the simultaneous elementary
  /// moves of a carrying rule). Sources must be occupied, and after removing
  /// all sources every destination must be empty — this correctly validates
  /// handover chains where one block's source is another's destination.
  void move_simultaneously(const std::vector<std::pair<Vec2, Vec2>>& moves);

  // -- mutation journal -----------------------------------------------------

  /// Monotonic counter bumped by every mutation (place/remove/move call).
  [[nodiscard]] uint64_t version() const { return version_; }

  /// Cells touched by the most recent mutation (sources and destinations),
  /// valid only while last_change_version() == version(). When the latest
  /// mutation touched more cells than the journal holds,
  /// last_change_overflowed() is set and consumers must treat the whole
  /// grid as changed.
  [[nodiscard]] const Vec2* last_change_cells() const {
    return last_change_.data();
  }
  [[nodiscard]] size_t last_change_count() const { return last_change_count_; }
  [[nodiscard]] bool last_change_overflowed() const {
    return last_change_overflow_;
  }
  [[nodiscard]] uint64_t last_change_version() const {
    return last_change_version_;
  }

  // -- connectivity cache (maintained with lattice/connectivity.cpp) --------

  [[nodiscard]] ConnectivityHint connectivity_hint() const { return conn_; }
  /// Stores a verdict; called by is_connected() (hence const). The sharded
  /// simulator settles a kUnknown verdict before each window opens, so no
  /// probe inside a window ever stores one.
  void set_connectivity_hint(ConnectivityHint hint) const { conn_ = hint; }

  [[nodiscard]] ConnectivityStats connectivity_stats() const {
    return {conn_fast_hits_, conn_slow_floods_};
  }
  /// Counts one connectivity probe as a fast hit or a flood (bookkeeping
  /// only, so callable through a const grid).
  void count_connectivity_probe(bool flooded) const {
    ++(flooded ? conn_slow_floods_ : conn_fast_hits_);
  }

  friend bool operator==(const Grid& a, const Grid& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.cells_ == b.cells_;
  }

 private:
  friend class WorldView;

  /// Journal capacity: a carrying rule moves two blocks (four cells); eight
  /// covers every rule in the library with headroom.
  static constexpr size_t kJournalCapacity = 8;

  [[nodiscard]] size_t index(Vec2 p) const {
    return static_cast<size_t>(p.y) * static_cast<size_t>(width_) +
           static_cast<size_t>(p.x);
  }

  /// Starts a new journal entry for one mutation call.
  void journal_begin() {
    ++version_;
    last_change_version_ = version_;
    last_change_count_ = 0;
    last_change_overflow_ = false;
  }
  void journal_touch(Vec2 p) {
    if (last_change_count_ < kJournalCapacity) {
      last_change_[last_change_count_++] = p;
    } else {
      last_change_overflow_ = true;
    }
  }

  int32_t width_;
  int32_t height_;
  std::vector<BlockId> cells_;
  /// SoA columns: positions by id, occupancy bytes, and liveness tags.
  /// Occupancy and positions are kept in lock-step with cells_ by the
  /// mutations below.
  WorldState state_;
  size_t block_count_ = 0;
  /// Blocks per row / column, kept in lock-step with cells_.
  std::vector<size_t> row_counts_;
  std::vector<size_t> col_counts_;

  uint64_t version_ = 0;
  uint64_t last_change_version_ = 0;
  std::array<Vec2, kJournalCapacity> last_change_{};
  size_t last_change_count_ = 0;
  bool last_change_overflow_ = false;

  /// Connectivity verdict cache + oracle counters; derived state only, so
  /// excluded from operator== and mutable through const grids. The counters
  /// are relaxed atomics: shard windows probe one frozen grid concurrently.
  mutable ConnectivityHint conn_ = ConnectivityHint::kUnknown;
  mutable util::ParallelCounter conn_fast_hits_;
  mutable util::ParallelCounter conn_slow_floods_;
};

}  // namespace sb::lat
