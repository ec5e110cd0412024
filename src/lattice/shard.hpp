#pragma once
// Spatial sharding of the surface.
//
// The sharded simulator (sim/simulator.hpp, docs/ARCHITECTURE.md) partitions
// the grid and gives each shard its own event queue, RNG stream, and
// counters. The algorithm's communication is strictly nearest-neighbor, so a
// block only ever interacts with its own shard or an adjacent one — the
// ShardMap is the single source of truth for "which shard owns this cell".
//
// Four geometries share one class:
//
//   columns   equal-width vertical stripes (the classic layout);
//   rows      equal-height horizontal stripes;
//   tiles     a 2-D tile grid, ~sqrt(N) x sqrt(N) tiles;
//   adaptive  column stripes with load-balanced boundaries, re-striped from
//             the per-shard event counters of a previous run
//             (SessionResult::shard_events) so hot regions split finer.
//
// The map is pure geometry: it holds no occupancy and never changes after
// construction, so concurrent shard workers can query it freely.

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "lattice/vec2.hpp"
#include "util/assert.hpp"

namespace sb::lat {

enum class ShardMapKind : uint8_t { kColumns, kRows, kTiles };

[[nodiscard]] constexpr const char* to_string(ShardMapKind kind) {
  switch (kind) {
    case ShardMapKind::kColumns: return "columns";
    case ShardMapKind::kRows: return "rows";
    case ShardMapKind::kTiles: return "tiles";
  }
  return "?";
}

class ShardMap {
 public:
  /// Identity map: one shard covering the whole surface.
  ShardMap() = default;

  /// Splits a `grid_width`-wide surface into `requested` column stripes.
  /// The effective shard count is clamped to the width (a stripe is at
  /// least one column wide). The stripe width is rounded up so every
  /// column is covered, and the count is then recomputed from it — the
  /// rounding can leave trailing stripes with no columns (width 10,
  /// requested 8: stripes of 2 cover everything with 5 shards), and empty
  /// shards must not exist (they would idle workers and misreport the
  /// shard count).
  ShardMap(int32_t grid_width, size_t requested) : width_(grid_width) {
    SB_EXPECTS(grid_width > 0, "ShardMap needs a positive grid width");
    const size_t clamped = clamp_count(grid_width, requested);
    stripe_width_ = (grid_width + static_cast<int32_t>(clamped) - 1) /
                    static_cast<int32_t>(clamped);
    count_ = static_cast<size_t>((grid_width + stripe_width_ - 1) /
                                 stripe_width_);
  }

  /// Equal-height horizontal stripes (same rounding rules as columns).
  [[nodiscard]] static ShardMap rows(int32_t grid_width, int32_t grid_height,
                                     size_t requested) {
    SB_EXPECTS(grid_height > 0, "ShardMap needs a positive grid height");
    ShardMap map(grid_width, 1);
    map.kind_ = ShardMapKind::kRows;
    map.height_ = grid_height;
    map.stripe_width_ = grid_width;  // one column band spanning the width
    const size_t clamped = clamp_count(grid_height, requested);
    map.stripe_height_ = (grid_height + static_cast<int32_t>(clamped) - 1) /
                         static_cast<int32_t>(clamped);
    map.count_ = static_cast<size_t>(
        (grid_height + map.stripe_height_ - 1) / map.stripe_height_);
    return map;
  }

  /// 2-D tile grid of about `requested` shards: tiles_x = floor(sqrt(N))
  /// columns of tiles times N / tiles_x rows of tiles, each dimension
  /// ceil-rounded so no tile is empty. The effective count is <= requested.
  [[nodiscard]] static ShardMap tiles(int32_t grid_width, int32_t grid_height,
                                      size_t requested) {
    SB_EXPECTS(grid_width > 0 && grid_height > 0,
               "ShardMap needs a positive surface");
    if (requested < 1) requested = 1;
    size_t tiles_x = 1;
    while ((tiles_x + 1) * (tiles_x + 1) <= requested) ++tiles_x;
    size_t tiles_y = requested / tiles_x;
    tiles_x = clamp_count(grid_width, tiles_x);
    tiles_y = clamp_count(grid_height, tiles_y);
    ShardMap map(grid_width, 1);
    map.kind_ = ShardMapKind::kTiles;
    map.height_ = grid_height;
    map.stripe_width_ = (grid_width + static_cast<int32_t>(tiles_x) - 1) /
                        static_cast<int32_t>(tiles_x);
    map.stripe_height_ = (grid_height + static_cast<int32_t>(tiles_y) - 1) /
                         static_cast<int32_t>(tiles_y);
    map.tiles_x_ = static_cast<size_t>(
        (grid_width + map.stripe_width_ - 1) / map.stripe_width_);
    const auto rows_of_tiles = static_cast<size_t>(
        (grid_height + map.stripe_height_ - 1) / map.stripe_height_);
    map.count_ = map.tiles_x_ * rows_of_tiles;
    return map;
  }

  /// Column stripes with explicit load-balanced boundaries: `column_load`
  /// holds one weight per column; boundaries are chosen so every stripe
  /// carries about total/requested of the load, with at least one column
  /// per stripe. All-zero load degrades to the uniform column map.
  [[nodiscard]] static ShardMap adaptive_columns(
      int32_t grid_width, const std::vector<uint64_t>& column_load,
      size_t requested) {
    SB_EXPECTS(grid_width > 0, "ShardMap needs a positive grid width");
    SB_EXPECTS(column_load.size() == static_cast<size_t>(grid_width),
               "adaptive column map needs one load entry per column");
    const size_t shards = clamp_count(grid_width, requested);
    const uint64_t total = std::accumulate(column_load.begin(),
                                           column_load.end(), uint64_t{0});
    if (shards <= 1 || total == 0) return ShardMap(grid_width, requested);
    ShardMap map(grid_width, 1);
    map.first_columns_.clear();
    map.first_columns_.push_back(0);
    // Greedy equal-load sweep: cut after column c once the running load
    // crosses the next multiple of total/shards — while leaving enough
    // columns for the remaining stripes (>= 1 column each).
    uint64_t cum = 0;
    for (int32_t c = 0; c < grid_width; ++c) {
      cum += column_load[static_cast<size_t>(c)];
      const size_t made = map.first_columns_.size();  // stripes started
      if (made >= shards) break;
      const bool load_reached =
          static_cast<__uint128_t>(cum) * shards >=
          static_cast<__uint128_t>(total) * made;
      const bool room_left =
          static_cast<size_t>(grid_width - c - 1) > shards - made - 1;
      const bool must_cut = static_cast<size_t>(grid_width - c - 1) ==
                            shards - made;
      if ((load_reached || must_cut) && room_left && c + 1 < grid_width) {
        map.first_columns_.push_back(c + 1);
      }
    }
    map.count_ = map.first_columns_.size();
    map.stripe_width_ = 0;  // boundaries are explicit, not arithmetic
    return map;
  }

  /// Re-stripes a column map from a finished run's per-shard event counts:
  /// each old stripe's count is spread uniformly over its columns, then the
  /// boundaries are re-chosen at equal load. Only column maps re-stripe;
  /// `shard_events` must have one entry per shard of `previous`.
  [[nodiscard]] static ShardMap restriped(
      const ShardMap& previous, const std::vector<uint64_t>& shard_events,
      size_t requested) {
    SB_EXPECTS(previous.kind() == ShardMapKind::kColumns,
               "only column maps re-stripe adaptively");
    SB_EXPECTS(shard_events.size() == previous.count(),
               "restriped needs one event count per previous shard");
    std::vector<uint64_t> column_load(
        static_cast<size_t>(previous.width()), 0);
    for (size_t shard = 0; shard < previous.count(); ++shard) {
      const int32_t first = previous.first_column(shard);
      const int32_t last = shard + 1 < previous.count()
                               ? previous.first_column(shard + 1)
                               : previous.width();
      const auto columns = static_cast<uint64_t>(last - first);
      for (int32_t c = first; c < last; ++c) {
        column_load[static_cast<size_t>(c)] = shard_events[shard] / columns;
      }
    }
    return adaptive_columns(previous.width(), column_load, requested);
  }

  [[nodiscard]] ShardMapKind kind() const { return kind_; }

  /// Number of shards actually created (<= requested).
  [[nodiscard]] size_t count() const { return count_; }

  [[nodiscard]] int32_t width() const { return width_; }
  [[nodiscard]] int32_t height() const { return height_; }

  /// Columns per stripe (the last stripe may be narrower). 0 for adaptive
  /// column maps, whose stripes have explicit unequal boundaries.
  [[nodiscard]] int32_t stripe_width() const { return stripe_width_; }

  /// Rows per stripe for row/tile maps.
  [[nodiscard]] int32_t stripe_height() const { return stripe_height_; }

  /// Shard owning column x (column maps only). The caller must pass an
  /// in-surface column.
  [[nodiscard]] size_t shard_of_column(int32_t x) const {
    SB_ASSERT(x >= 0 && x < width_, "column ", x, " is off the surface");
    SB_ASSERT(kind_ == ShardMapKind::kColumns);
    if (stripe_width_ > 0) return static_cast<size_t>(x / stripe_width_);
    // Adaptive boundaries: the last stripe whose first column is <= x.
    size_t shard = count_ - 1;
    while (first_columns_[shard] > x) --shard;
    return shard;
  }

  /// Shard owning position `p`. The caller must pass an in-surface cell.
  [[nodiscard]] size_t shard_of(Vec2 p) const {
    switch (kind_) {
      case ShardMapKind::kColumns: return shard_of_column(p.x);
      case ShardMapKind::kRows:
        SB_ASSERT(p.y >= 0 && p.y < height_);
        return static_cast<size_t>(p.y / stripe_height_);
      case ShardMapKind::kTiles:
        SB_ASSERT(p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_);
        return static_cast<size_t>(p.y / stripe_height_) * tiles_x_ +
               static_cast<size_t>(p.x / stripe_width_);
    }
    SB_UNREACHABLE();
  }

  /// First (west-most) column of a stripe (column maps only).
  [[nodiscard]] int32_t first_column(size_t shard) const {
    SB_ASSERT(kind_ == ShardMapKind::kColumns);
    if (stripe_width_ > 0) {
      return static_cast<int32_t>(shard) * stripe_width_;
    }
    return first_columns_[shard];
  }

  /// "columns x4 (stripe 16)"-style label for logs and reports.
  [[nodiscard]] std::string describe() const {
    std::string out = to_string(kind_);
    out += " x" + std::to_string(count_);
    if (kind_ == ShardMapKind::kColumns && stripe_width_ == 0) {
      out += " (adaptive)";
    }
    return out;
  }

 private:
  static size_t clamp_count(int32_t extent, size_t requested) {
    if (requested < 1) requested = 1;
    const auto limit = static_cast<size_t>(extent > 0 ? extent : 1);
    return requested < limit ? requested : limit;
  }

  ShardMapKind kind_ = ShardMapKind::kColumns;
  int32_t width_ = 1;
  int32_t height_ = 1;
  size_t count_ = 1;
  /// Uniform stripe geometry; stripe_width_ == 0 marks an adaptive column
  /// map with explicit boundaries in first_columns_.
  int32_t stripe_width_ = 1;
  int32_t stripe_height_ = 1;
  /// Tiles per tile-row (tile maps).
  size_t tiles_x_ = 1;
  /// First column of each stripe (adaptive column maps).
  std::vector<int32_t> first_columns_;
};

}  // namespace sb::lat
