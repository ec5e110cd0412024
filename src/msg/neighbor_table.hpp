#pragma once
// The Neighbor Table NT of a block (paper Fig. 8): which block is attached
// on each lateral side. Message flow is counted simulator-wide, in
// sim::SimStats, not per side.

#include <array>
#include <optional>

#include "lattice/block_id.hpp"
#include "lattice/direction.hpp"

namespace sb::msg {

class NeighborTable {
 public:
  [[nodiscard]] lat::BlockId neighbor(lat::Direction d) const {
    return table_[static_cast<size_t>(d)];
  }
  void set_neighbor(lat::Direction d, lat::BlockId id) {
    table_[static_cast<size_t>(d)] = id;
  }
  void clear(lat::Direction d) { set_neighbor(d, lat::kInvalidBlock); }

  /// The side the valid block `id` is attached on, if any. The simulator
  /// keeps every table equal to the grid's four neighbours of its block,
  /// so this is also the physical contact test a delivery needs.
  [[nodiscard]] std::optional<lat::Direction> side_of(lat::BlockId id) const {
    for (size_t i = 0; i < table_.size(); ++i) {
      if (table_[i] == id) return static_cast<lat::Direction>(i);
    }
    return std::nullopt;
  }

  [[nodiscard]] int attached_count() const {
    int n = 0;
    for (const auto id : table_) n += id.valid() ? 1 : 0;
    return n;
  }

 private:
  std::array<lat::BlockId, lat::kDirectionCount> table_{};
};

}  // namespace sb::msg
