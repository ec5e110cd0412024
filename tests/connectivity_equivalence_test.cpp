// Randomized equivalence suite for the two-tier connectivity oracle.
//
// The production oracle answers most probes with the O(1) local
// 8-neighborhood rule and falls back to a generation-stamped scratch flood
// (lattice/connectivity.cpp); this suite pins it against an independent
// hash-set BFS reference (the pre-fast-path implementation) over thousands
// of random grids and move batches — including disconnecting moves,
// handover chains and carrying-style double moves — and across mutations,
// which exercises the grid's cached connectivity hint. The mask rule itself
// is pinned cell by cell against a bounds-checked re-derivation through
// every function that exposes it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lattice/connectivity.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace sb::lat {
namespace {

using MoveList = std::vector<std::pair<Vec2, Vec2>>;

// -- reference model (hash-set BFS, no shortcuts) ---------------------------

size_t reference_flood(const Grid& grid, Vec2 start,
                       const std::unordered_set<Vec2, Vec2Hash>& vacated,
                       const std::unordered_set<Vec2, Vec2Hash>& filled) {
  const WorldView view(grid);
  const auto occupied = [&](Vec2 p) {
    if (filled.count(p)) return true;
    if (vacated.count(p)) return false;
    return view.occupied(p);
  };
  if (!occupied(start)) return 0;
  std::unordered_set<Vec2, Vec2Hash> seen{start};
  std::vector<Vec2> frontier{start};
  while (!frontier.empty()) {
    const Vec2 p = frontier.back();
    frontier.pop_back();
    for (Direction d : all_directions()) {
      const Vec2 q = p + delta(d);
      if (!seen.count(q) && occupied(q)) {
        seen.insert(q);
        frontier.push_back(q);
      }
    }
  }
  return seen.size();
}

bool reference_is_connected(const Grid& grid) {
  if (grid.block_count() <= 1) return true;
  return reference_flood(grid, grid.first_block_position(), {}, {}) ==
         grid.block_count();
}

bool reference_connected_after(const Grid& grid, const MoveList& moves) {
  std::unordered_set<Vec2, Vec2Hash> vacated;
  std::unordered_set<Vec2, Vec2Hash> filled;
  for (const auto& [from, to] : moves) vacated.insert(from);
  for (const auto& [from, to] : moves) {
    filled.insert(to);
    vacated.erase(to);
  }
  if (grid.block_count() <= 1) return true;
  Vec2 start{-1, -1};
  bool found = false;
  for (const auto& [id, pos] : WorldView(grid).blocks()) {
    Vec2 p = pos;
    for (const auto& [from, to] : moves) {
      if (from == pos) {
        p = to;
        break;
      }
    }
    if (!found) {
      start = p;
      found = true;
    }
  }
  return reference_flood(grid, start, vacated, filled) ==
         grid.block_count();
}

bool reference_single_line_after(const Grid& grid, const MoveList& moves) {
  if (grid.block_count() <= 1) return true;
  bool same_x = true;
  bool same_y = true;
  bool first = true;
  Vec2 reference;
  for (const auto& [id, pos] : WorldView(grid).blocks()) {
    Vec2 p = pos;
    for (const auto& [from, to] : moves) {
      if (from == pos) {
        p = to;
        break;
      }
    }
    if (first) {
      reference = p;
      first = false;
    } else {
      same_x &= p.x == reference.x;
      same_y &= p.y == reference.y;
    }
  }
  return same_x || same_y;
}

// -- random generation ------------------------------------------------------

Grid random_grid(Rng& rng, std::vector<Vec2>& occupied_cells) {
  const auto w = static_cast<int32_t>(rng.next_in(4, 12));
  const auto h = static_cast<int32_t>(rng.next_in(4, 12));
  Grid grid(w, h);
  const WorldView view(grid);
  occupied_cells.clear();
  // Half the grids grow as connected blobs (the sim's regime, where the
  // local rule and the hint cache do the work); the rest are uniform
  // sprinkles, frequently disconnected.
  uint32_t id = 1;
  if (rng.next_bool()) {
    const Vec2 seed{static_cast<int32_t>(rng.next_in(0, w - 1)),
                    static_cast<int32_t>(rng.next_in(0, h - 1))};
    grid.place(BlockId{id++}, seed);
    occupied_cells.push_back(seed);
    const auto target = static_cast<size_t>(
        rng.next_in(2, static_cast<int64_t>(w) * h / 2));
    for (size_t attempts = 0;
         grid.block_count() < target && attempts < 400; ++attempts) {
      const Vec2 base = occupied_cells[rng.pick_index(occupied_cells)];
      const Vec2 q = base + delta(static_cast<Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(q) && !view.occupied(q)) {
        grid.place(BlockId{id++}, q);
        occupied_cells.push_back(q);
      }
    }
  } else {
    const int64_t cells = static_cast<int64_t>(w) * h;
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        if (rng.next_in(0, cells) < cells / 3) {
          grid.place(BlockId{id++}, {x, y});
          occupied_cells.push_back({x, y});
        }
      }
    }
  }
  return grid;
}

/// Random hypothetical batch: single hops (adjacent or teleport, often
/// disconnecting), handover chains, or carrying-style double moves.
MoveList random_batch(const Grid& grid, const std::vector<Vec2>& cells,
                      Rng& rng) {
  const WorldView view(grid);
  MoveList moves;
  if (cells.empty()) return moves;
  const auto empty_cell = [&](Rng& r) {
    for (int i = 0; i < 64; ++i) {
      const Vec2 q{static_cast<int32_t>(r.next_in(0, grid.width() - 1)),
                   static_cast<int32_t>(r.next_in(0, grid.height() - 1))};
      if (!view.occupied(q)) return q;
    }
    return Vec2{-1, -1};
  };
  const int shape = static_cast<int>(rng.next_in(0, 3));
  if (shape <= 1) {  // single hop; shape 0 adjacent, shape 1 teleport
    const Vec2 from = cells[rng.pick_index(cells)];
    Vec2 to{-1, -1};
    if (shape == 0) {
      const Vec2 q =
          from + delta(static_cast<Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(q) && !view.occupied(q)) to = q;
    } else {
      to = empty_cell(rng);
    }
    if (to.x >= 0) moves.push_back({from, to});
  } else if (shape == 2) {  // handover chain A->B, B->C
    const Vec2 a = cells[rng.pick_index(cells)];
    const Vec2 b = a + delta(static_cast<Direction>(rng.next_in(0, 3)));
    if (view.occupied(b)) {
      const Vec2 c = b + delta(static_cast<Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(c) && !view.occupied(c) && c != a) {
        moves.push_back({a, b});
        moves.push_back({b, c});
      }
    }
  } else {  // carrying-style: two blocks, two distinct empty destinations
    const Vec2 a = cells[rng.pick_index(cells)];
    const Vec2 b = cells[rng.pick_index(cells)];
    const Vec2 x = empty_cell(rng);
    const Vec2 y = empty_cell(rng);
    if (a != b && x.x >= 0 && y.x >= 0 && x != y) {
      moves.push_back({a, x});
      moves.push_back({b, y});
    }
  }
  return moves;
}

// -- suites -----------------------------------------------------------------

TEST(ConnectivityEquivalence, RandomGridsAgreeWithReference) {
  Rng rng(0xC0FFEEULL);
  std::vector<Vec2> cells;
  int batches_checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Grid grid = random_grid(rng, cells);
    ASSERT_EQ(is_connected(grid), reference_is_connected(grid))
        << "trial " << trial;
    for (int b = 0; b < 12; ++b) {
      const MoveList moves = random_batch(grid, cells, rng);
      if (moves.empty()) continue;
      ++batches_checked;
      ASSERT_EQ(connected_after_moves(grid, moves),
                reference_connected_after(grid, moves))
          << "trial " << trial << " batch " << b;
      ASSERT_EQ(lat::single_line_after_moves(grid, moves),
                reference_single_line_after(grid, moves))
          << "trial " << trial << " batch " << b;
    }
  }
  // The generator must actually produce work (including degenerate shapes).
  EXPECT_GT(batches_checked, 2000);
}

TEST(ConnectivityEquivalence, LocalRuleIsSoundOnConnectedGrids) {
  Rng rng(0xBEEFULL);
  std::vector<Vec2> cells;
  int conclusive = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const Grid grid = random_grid(rng, cells);
    if (!reference_is_connected(grid) || grid.block_count() < 2) continue;
    const Vec2 from = cells[rng.pick_index(cells)];
    const Vec2 to = from + delta(static_cast<Direction>(rng.next_in(0, 3)));
    if (!grid.in_bounds(to) || WorldView(grid).occupied(to)) continue;
    const MoveList moves{{from, to}};
    switch (local_move_check(grid, from, to)) {
      case LocalVerdict::kPreservesConnectivity:
        ++conclusive;
        ASSERT_TRUE(reference_connected_after(grid, moves))
            << "local rule accepted a disconnecting move, trial " << trial;
        break;
      case LocalVerdict::kDisconnects:
        ++conclusive;
        ASSERT_FALSE(reference_connected_after(grid, moves))
            << "local rule rejected a safe move, trial " << trial;
        break;
      case LocalVerdict::kInconclusive:
        break;  // the flood decides; covered by the suite above
    }
  }
  EXPECT_GT(conclusive, 100);  // the fast path must actually fire
}

TEST(ConnectivityEquivalence, HintCacheSurvivesMutations) {
  // Interleave queries with place/remove/move mutations: the cached
  // connectivity hint must never disagree with the reference.
  Rng rng(0x5EEDBEEFULL);
  std::vector<Vec2> cells;
  for (int trial = 0; trial < 120; ++trial) {
    Grid grid = random_grid(rng, cells);
    const WorldView view(grid);
    uint32_t next_id = 1000;
    for (int step = 0; step < 30; ++step) {
      const int action = static_cast<int>(rng.next_in(0, 2));
      if (action == 0 || cells.empty()) {  // place
        const Vec2 q{static_cast<int32_t>(rng.next_in(0, grid.width() - 1)),
                     static_cast<int32_t>(rng.next_in(0, grid.height() - 1))};
        if (!view.occupied(q)) {
          grid.place(BlockId{next_id++}, q);
          cells.push_back(q);
        }
      } else if (action == 1) {  // remove
        const size_t index = rng.pick_index(cells);
        grid.remove(cells[index]);
        cells[index] = cells.back();
        cells.pop_back();
      } else {  // move to a random adjacent empty cell
        const size_t index = rng.pick_index(cells);
        const Vec2 from = cells[index];
        const Vec2 to =
            from + delta(static_cast<Direction>(rng.next_in(0, 3)));
        if (grid.in_bounds(to) && !view.occupied(to)) {
          grid.move(from, to);
          cells[index] = to;
        }
      }
      ASSERT_EQ(is_connected(grid), reference_is_connected(grid))
          << "trial " << trial << " step " << step;
      ASSERT_EQ(is_single_line(grid),
                reference_single_line_after(grid, {}))
          << "trial " << trial << " step " << step;
    }
  }
}

// -- the mask rule against a bounds-checked re-derivation ---------------------

/// The run rule derived from scratch with bounds-checked occupancy: label
/// the cyclic runs of occupied ring cells, then vacating `p` is provably
/// safe iff at least one orthogonal neighbor is occupied and all of them
/// carry the same run label.
bool reference_removal_safe(const Grid& grid, Vec2 p) {
  const WorldView view(grid);
  // Ring in cyclic order; even indices are the orthogonal neighbors.
  constexpr std::array<Vec2, 8> kRing = {
      Vec2{0, 1},  Vec2{1, 1},   Vec2{1, 0},  Vec2{1, -1},
      Vec2{0, -1}, Vec2{-1, -1}, Vec2{-1, 0}, Vec2{-1, 1},
  };
  bool occupied[8];
  for (int i = 0; i < 8; ++i) occupied[i] = view.occupied(p + kRing[i]);
  int label[8];
  int labels = 0;
  for (int i = 0; i < 8; ++i) {
    if (!occupied[i]) {
      label[i] = -1;
    } else {
      label[i] = i > 0 && occupied[i - 1] ? label[i - 1] : labels++;
    }
  }
  // The ring closes: a run through NW and N is one run.
  if (occupied[7] && occupied[0] && label[7] != label[0]) {
    const int merged = label[7];
    for (int& l : label) {
      if (l == merged) l = label[0];
    }
  }
  int ortho_label = -1;
  for (int i = 0; i < 8; i += 2) {
    if (!occupied[i]) continue;
    if (ortho_label >= 0 && label[i] != ortho_label) return false;
    ortho_label = label[i];
  }
  return ortho_label >= 0;
}

/// Every cell of the grid, occupied or empty, through each public face of
/// the mask rule; returns the number of safe verdicts seen.
size_t expect_mask_matches_reference(const Grid& grid, const char* where) {
  const WorldView view(grid);
  std::vector<Vec2> all_cells;
  for (int32_t y = 0; y < grid.height(); ++y) {
    for (int32_t x = 0; x < grid.width(); ++x) all_cells.push_back({x, y});
  }
  std::vector<uint8_t> batch(all_cells.size(), 0xAA);
  batch_removal_verdicts(grid, all_cells.data(), all_cells.size(),
                         batch.data());
  const auto width = static_cast<size_t>(grid.width());
  std::vector<uint8_t> row(width + 1);
  size_t safe = 0;
  for (int32_t y = 0; y < grid.height(); ++y) {
    std::fill(row.begin(), row.end(), uint8_t{0xAA});
    detail::compute_removal_row_scalar(grid, y, row.data());
    EXPECT_EQ(row[width], 0xAA) << where << ": row " << y << " overran";
    for (int32_t x = 0; x < grid.width(); ++x) {
      const Vec2 p{x, y};
      const bool expected = reference_removal_safe(grid, p);
      safe += expected ? 1 : 0;
      const size_t i = static_cast<size_t>(y) * width + static_cast<size_t>(x);
      EXPECT_EQ(local_removal_check(grid, p),
                expected ? LocalVerdict::kPreservesConnectivity
                         : LocalVerdict::kInconclusive)
          << where << " at " << p;
      EXPECT_EQ(batch[i], expected ? 1 : 0) << where << " at " << p;
      EXPECT_EQ(row[static_cast<size_t>(x)], expected ? 1 : 0)
          << where << " at " << p;
      // A move from an occupied cell to an empty 4-neighbor adds the
      // attachment test on top of the same mask.
      if (!view.occupied(p)) continue;
      for (Direction d : all_directions()) {
        const Vec2 to = p + delta(d);
        if (!grid.in_bounds(to) || view.occupied(to)) continue;
        bool attaches = false;
        for (Direction e : all_directions()) {
          const Vec2 q = to + delta(e);
          attaches |= q != p && view.occupied(q);
        }
        LocalVerdict want = LocalVerdict::kDisconnects;
        if (attaches) {
          want = expected ? LocalVerdict::kPreservesConnectivity
                          : LocalVerdict::kInconclusive;
        }
        EXPECT_EQ(local_move_check(grid, p, to), want)
            << where << ": " << p << " -> " << to;
      }
    }
  }
  return safe;
}

TEST(ConnectivityEquivalence, MaskRuleMatchesReferenceOnEveryCell) {
  // Surfaces 1 to 3 cells wide or tall (every cell is an edge or corner,
  // so the padding ring stands in for most of each ring), then larger
  // ones; each is checked as generated and after every random move.
  Rng rng(0x3A5CULL);
  std::vector<std::pair<int32_t, int32_t>> sizes;
  for (int32_t thin = 1; thin <= 3; ++thin) {
    for (int32_t len = 1; len <= 9; ++len) {
      sizes.emplace_back(thin, len);
      sizes.emplace_back(len, thin);
    }
  }
  for (int i = 0; i < 40; ++i) {
    sizes.emplace_back(static_cast<int32_t>(rng.next_in(4, 13)),
                       static_cast<int32_t>(rng.next_in(4, 13)));
  }
  size_t safe = 0;
  size_t cells_checked = 0;
  size_t states = 0;
  for (const auto& [w, h] : sizes) {
    for (int trial = 0; trial < 4; ++trial) {
      Grid grid(w, h);
      std::vector<Vec2> cells;
      uint32_t id = 1;
      // Trial 0 fills the surface (every interior ring is the full mask);
      // the others sprinkle at densities from sparse to dense.
      const int64_t keep = trial == 0 ? 4 : rng.next_in(1, 3);
      for (int32_t y = 0; y < h; ++y) {
        for (int32_t x = 0; x < w; ++x) {
          if (rng.next_in(0, 3) >= keep) continue;
          grid.place(BlockId{id++}, {x, y});
          cells.push_back({x, y});
        }
      }
      const std::string where = fmt("surface {}x{} trial {}", w, h, trial);
      safe += expect_mask_matches_reference(grid, where.c_str());
      cells_checked += grid.cell_count();
      ++states;
      for (int step = 0; step < 8 && !cells.empty(); ++step) {
        const size_t index = rng.pick_index(cells);
        const Vec2 to{static_cast<int32_t>(rng.next_in(0, w - 1)),
                      static_cast<int32_t>(rng.next_in(0, h - 1))};
        if (WorldView(grid).occupied(to)) continue;
        grid.move(cells[index], to);
        cells[index] = to;
        const std::string after = fmt("{} step {}", where, step);
        safe += expect_mask_matches_reference(grid, after.c_str());
        cells_checked += grid.cell_count();
        ++states;
      }
      if (HasFailure()) return;
    }
  }
  // Both verdicts must actually occur.
  EXPECT_GT(states, 1000u);
  EXPECT_GT(safe, 1000u);
  EXPECT_GT(cells_checked - safe, 1000u);
}

}  // namespace
}  // namespace sb::lat
