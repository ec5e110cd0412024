#pragma once
// The Neighbor Table NT of a block (paper Fig. 8): which block is attached
// on each lateral side. Message flow is counted simulator-wide, in
// sim::SimStats, not per side.

#include <array>

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

  [[nodiscard]] int attached_count() const {
    int n = 0;
    for (const auto id : table_) n += id.valid() ? 1 : 0;
    return n;
  }

 private:
  std::array<lat::BlockId, lat::kDirectionCount> table_{};
};

}  // namespace sb::msg
