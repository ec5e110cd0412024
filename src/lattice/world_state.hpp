#pragma once
// Struct-of-arrays storage for the hot per-block world state: dense
// id-indexed columns (position x/y, liveness tag) plus a byte-per-cell
// occupancy image of the grid, so that scans touch cache-linear memory and
// the 8-neighborhood mask oracle reads a cell's ring from three padded rows
// with no bounds branches (lattice/connectivity.cpp).
//
// Each fact lives here once: a block program's epoch stays in the program
// (core::SmartBlockCode::epoch) and in-flight motions stay in the
// simulator's registry (sim::Simulator::cell_in_motion).
//
// WorldState is owned by Grid and mutated only through Grid's mutations and
// the simulator's tag writer; everything else reads it through the
// lat::WorldView facade (lattice/world_view.hpp).

#include <cstdint>
#include <vector>

#include "lattice/block_id.hpp"
#include "lattice/vec2.hpp"
#include "util/assert.hpp"

namespace sb::lat {

/// Per-module lifecycle tag (the "state tag" column). kUnregistered means
/// no module program was ever attached to the id; kDead blocks stay on the
/// surface as inert obstacles (paper §VI fault model).
enum class ModuleTag : uint8_t { kUnregistered = 0, kAlive = 1, kDead = 2 };

class WorldState {
 public:
  /// Coordinate sentinel for "id not on the surface" in the position
  /// columns.
  static constexpr int32_t kUnplacedCoord = INT32_MIN;

  WorldState(int32_t width, int32_t height);

  [[nodiscard]] int32_t width() const { return width_; }
  [[nodiscard]] int32_t height() const { return height_; }

  // -- occupancy image -------------------------------------------------------
  //
  // One byte per cell (0 empty / 1 occupied), padded with one always-empty
  // ring so 8-neighborhood sweeps never branch on the surface edge. Kept in
  // lock-step with Grid's cell array by Grid's mutations.

  /// Bytes of padded row `y` starting at x = 0; valid offsets are
  /// [-1, width()] (the padding ring reads 0). Rows y = -1 and y = height()
  /// are valid padding rows.
  [[nodiscard]] const uint8_t* occupancy_row(int32_t y) const {
    return occ_.data() + pad_index(0, y);
  }
  [[nodiscard]] bool occupied(Vec2 p) const {
    return occ_[pad_index(p.x, p.y)] != 0;
  }
  void set_occupied(Vec2 p, bool value) {
    occ_[pad_index(p.x, p.y)] = value ? 1 : 0;
  }

  // -- position columns (SoA: x and y are separate arrays) -------------------

  [[nodiscard]] bool has_position(BlockId id) const {
    return id.valid() && id.value < x_.size() &&
           x_[id.value] != kUnplacedCoord;
  }
  [[nodiscard]] Vec2 position(BlockId id) const {
    return Vec2{x_[id.value], y_[id.value]};
  }
  [[nodiscard]] size_t id_capacity() const { return x_.size(); }

  void set_position(BlockId id, Vec2 p) {
    ensure_id(id);
    x_[id.value] = p.x;
    y_[id.value] = p.y;
  }
  void clear_position(BlockId id) {
    x_[id.value] = kUnplacedCoord;
    y_[id.value] = kUnplacedCoord;
  }

  // -- liveness tag column (written by the simulator via Grid) ---------------

  [[nodiscard]] ModuleTag tag(BlockId id) const {
    return id.valid() && id.value < tag_.size()
               ? static_cast<ModuleTag>(tag_[id.value])
               : ModuleTag::kUnregistered;
  }
  void set_tag(BlockId id, ModuleTag tag) {
    ensure_id(id);
    tag_[id.value] = static_cast<uint8_t>(tag);
  }

 private:
  [[nodiscard]] size_t pad_index(int32_t x, int32_t y) const {
    return static_cast<size_t>(y + 1) * static_cast<size_t>(width_ + 2) +
           static_cast<size_t>(x + 1);
  }

  void ensure_id(BlockId id);

  int32_t width_;
  int32_t height_;
  /// Padded occupancy bytes, stride width()+2, rows height()+2.
  std::vector<uint8_t> occ_;
  /// Position columns, indexed by id; kUnplacedCoord = off the surface.
  std::vector<int32_t> x_;
  std::vector<int32_t> y_;
  /// Liveness tags, indexed by id, grown in lock-step with x_/y_.
  std::vector<uint8_t> tag_;
};

}  // namespace sb::lat
