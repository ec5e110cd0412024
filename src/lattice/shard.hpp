#pragma once
// Spatial sharding of the surface.
//
// The sharded simulator (sim/simulator.hpp, docs/ARCHITECTURE.md) partitions
// the grid into column stripes and gives each shard its own event queue,
// RNG stream, and counters. The algorithm's communication is strictly
// nearest-neighbor, so a block only ever interacts with its own shard or an
// adjacent one — the ShardMap is the single source of truth for "which shard
// owns this cell".
//
// Stripes are cut at equal load, not equal width: every Algorithm-1 election
// floods every block (Remark 3), so a stripe's work follows the blocks it
// holds, and the simulator weighs each column by its block count.
//
// The map is pure geometry: it holds no occupancy and never changes after
// construction, so concurrent shard workers can query it freely.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "lattice/vec2.hpp"
#include "util/assert.hpp"

namespace sb::lat {

class ShardMap {
 public:
  /// One shard and no columns: a placeholder the simulator replaces before
  /// it queries shard_of.
  ShardMap() = default;

  /// Cuts a surface with one `column_load` entry per column into
  /// `requested` column stripes of about equal load. The count is clamped
  /// to the width, so every stripe holds at least one column; all-zero load
  /// weighs every column equally.
  ShardMap(const std::vector<uint64_t>& column_load, size_t requested)
      : owner_(column_load.size(), 0) {
    SB_EXPECTS(!column_load.empty(), "ShardMap needs a positive grid width");
    const size_t width = column_load.size();
    count_ = std::clamp<size_t>(requested, 1, width);
    uint64_t total = std::accumulate(column_load.begin(), column_load.end(),
                                     uint64_t{0});
    const bool uniform = total == 0;
    if (uniform) total = width;
    // Greedy sweep: start the next stripe after column c once the running
    // load reaches its share of the total, or once the columns left are
    // just enough to give every remaining stripe one.
    uint32_t shard = 0;
    uint64_t cum = 0;
    for (size_t c = 0; c < width; ++c) {
      owner_[c] = shard;
      cum += uniform ? 1 : column_load[c];
      const size_t started = shard + 1;
      if (started == count_) continue;
      const bool load_reached =
          static_cast<__uint128_t>(cum) * count_ >=
          static_cast<__uint128_t>(total) * started;
      if (load_reached || width - c - 1 == count_ - started) ++shard;
    }
  }

  /// Number of shards (the requested count clamped to the width).
  [[nodiscard]] size_t count() const { return count_; }

  /// Shard owning position `p`. O(1). The caller must pass an in-surface
  /// cell.
  [[nodiscard]] size_t shard_of(Vec2 p) const {
    const auto x = static_cast<size_t>(p.x);  // a negative x wraps high
    SB_ASSERT(x < owner_.size(), "column ", p.x, " is off the surface");
    return owner_[x];
  }

 private:
  size_t count_ = 1;
  /// Owning shard of each column, non-decreasing from west to east.
  std::vector<uint32_t> owner_;
};

}  // namespace sb::lat
