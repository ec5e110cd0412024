// Equivalence suite for the WorldState columns that shadow Grid's cell
// array.
//
// Two layers of evidence, from micro to end-to-end:
//
//   1. Column mirroring: random mutation sequences (place / remove / move /
//      simultaneous handover chains) through Grid must keep the occupancy
//      byte image and the position columns consistent with the cell array,
//      as read through lat::WorldView (the only read path to either).
//
//   2. Traces: a batch of fresh fuzz seeds runs through the full
//      differential harness, which compares one-shard and four-shard
//      runs' move traces and final occupancy byte for byte.
//
// The mask oracle that reads the occupancy image is pinned cell by cell
// against an independent reference in connectivity_equivalence_test, and
// the committed corpus replays on every backend in fuzz_corpus_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "lattice/grid.hpp"
#include "lattice/world_view.hpp"
#include "util/rng.hpp"

namespace sb {
namespace {

// -- shared random-grid machinery -------------------------------------------

/// Random surface with a mix of connected-blob growth and loose sprinkles;
/// `occupied_cells` tracks the occupied positions for the mutation driver.
lat::Grid random_grid(Rng& rng, std::vector<lat::Vec2>& occupied_cells,
                      uint32_t& next_id) {
  const auto w = static_cast<int32_t>(rng.next_in(4, 14));
  const auto h = static_cast<int32_t>(rng.next_in(4, 14));
  lat::Grid grid(w, h);
  const lat::WorldView view(grid);
  occupied_cells.clear();
  if (rng.next_bool()) {
    const lat::Vec2 seed{static_cast<int32_t>(rng.next_in(0, w - 1)),
                         static_cast<int32_t>(rng.next_in(0, h - 1))};
    grid.place(lat::BlockId{next_id++}, seed);
    occupied_cells.push_back(seed);
    const auto target = static_cast<size_t>(
        rng.next_in(2, static_cast<int64_t>(w) * h / 2));
    for (size_t attempts = 0;
         grid.block_count() < target && attempts < 400; ++attempts) {
      const lat::Vec2 base = occupied_cells[rng.pick_index(occupied_cells)];
      const lat::Vec2 q =
          base + delta(static_cast<lat::Direction>(rng.next_in(0, 3)));
      if (grid.in_bounds(q) && !view.occupied(q)) {
        grid.place(lat::BlockId{next_id++}, q);
        occupied_cells.push_back(q);
      }
    }
  } else {
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        if (rng.next_in(0, 2) == 0) {
          grid.place(lat::BlockId{next_id++}, {x, y});
          occupied_cells.push_back({x, y});
        }
      }
    }
  }
  return grid;
}

/// Asserts that the SoA columns agree with the AoS cell array everywhere:
/// occupancy bytes (including the always-empty padding ring) against at(),
/// and the position columns against the cells via WorldView round-trips.
void expect_columns_mirror_cells(const lat::Grid& grid) {
  const lat::WorldView view(grid);
  // Occupancy image vs cell array, cell by cell.
  for (int32_t y = 0; y < grid.height(); ++y) {
    const uint8_t* row = view.occupancy_row(y);
    for (int32_t x = 0; x < grid.width(); ++x) {
      const bool cell_says = view.at({x, y}).valid();
      ASSERT_EQ(row[x] != 0, cell_says)
          << "occupancy byte disagrees with the cell array at (" << x << ","
          << y << ")";
    }
    // Padding columns never go occupied.
    ASSERT_EQ(row[-1], 0) << "left padding dirty in row " << y;
    ASSERT_EQ(row[grid.width()], 0) << "right padding dirty in row " << y;
  }
  for (const int32_t y : {-1, grid.height()}) {
    const uint8_t* row = view.occupancy_row(y);
    for (int32_t x = -1; x <= grid.width(); ++x) {
      ASSERT_EQ(row[x], 0) << "padding row " << y << " dirty at x=" << x;
    }
  }
  // Position columns vs cells: every occupied cell round-trips through
  // position_of, and every placed id points at a cell holding it.
  size_t from_cells = 0;
  for (int32_t y = 0; y < grid.height(); ++y) {
    for (int32_t x = 0; x < grid.width(); ++x) {
      const lat::BlockId id = view.at({x, y});
      if (!id.valid()) continue;
      ++from_cells;
      ASSERT_TRUE(view.contains(id));
      ASSERT_EQ(view.position_of(id), (lat::Vec2{x, y}));
    }
  }
  ASSERT_EQ(from_cells, view.block_count());
  for (const auto& [id, pos] : view.blocks()) {
    ASSERT_EQ(view.at(pos), id);
  }
}

TEST(SoaEquivalence, ColumnsMirrorTheCellArrayUnderRandomMutations) {
  Rng rng(0x50A50A50AULL);
  std::vector<lat::Vec2> cells;
  for (int trial = 0; trial < 60; ++trial) {
    uint32_t next_id = 1;
    lat::Grid grid = random_grid(rng, cells, next_id);
    const lat::WorldView view(grid);
    expect_columns_mirror_cells(grid);
    for (int step = 0; step < 40; ++step) {
      const int action = static_cast<int>(rng.next_in(0, 3));
      if (action == 0 || cells.empty()) {  // place
        const lat::Vec2 q{
            static_cast<int32_t>(rng.next_in(0, grid.width() - 1)),
            static_cast<int32_t>(rng.next_in(0, grid.height() - 1))};
        if (!view.occupied(q)) {
          grid.place(lat::BlockId{next_id++}, q);
          cells.push_back(q);
        }
      } else if (action == 1) {  // remove
        const size_t index = rng.pick_index(cells);
        grid.remove(cells[index]);
        cells[index] = cells.back();
        cells.pop_back();
      } else if (action == 2) {  // single move
        const size_t index = rng.pick_index(cells);
        const lat::Vec2 from = cells[index];
        const lat::Vec2 to =
            from + delta(static_cast<lat::Direction>(rng.next_in(0, 3)));
        if (grid.in_bounds(to) && !view.occupied(to)) {
          grid.move(from, to);
          cells[index] = to;
        }
      } else {  // handover chain A->B, B->C as one atomic step
        const size_t index = rng.pick_index(cells);
        const lat::Vec2 a = cells[index];
        const lat::Vec2 b =
            a + delta(static_cast<lat::Direction>(rng.next_in(0, 3)));
        const lat::Vec2 c =
            b + delta(static_cast<lat::Direction>(rng.next_in(0, 3)));
        if (view.occupied(b) && grid.in_bounds(c) && !view.occupied(c) &&
            c != a) {
          grid.move_simultaneously({{a, b}, {b, c}});
          const auto b_at = std::find(cells.begin(), cells.end(), b);
          ASSERT_NE(b_at, cells.end());
          *b_at = c;
          cells[index] = b;
        }
      }
      expect_columns_mirror_cells(grid);
    }
  }
}

// -- end-to-end: fresh seeds through one shard and four -----------------------

TEST(SoaEquivalence, FreshFuzzSeedsAgreeAcrossOraclePaths) {
  // Fresh seeds (not the minimized corpus shapes), forced comparable so
  // the harness holds move traces byte-identical between the one-shard
  // run, whose windows end at each grid mutation, and the four-shard runs,
  // whose windows span the lookahead; both settle the grid's verdict hint
  // before each window opens.
  check::GeneratorOptions options;
  options.always_comparable = true;
  for (uint64_t seed = 0x50A00; seed < 0x50A0C; ++seed) {
    const check::FuzzCase fuzz_case = check::generate_case(seed, options);
    SCOPED_TRACE(fuzz_case.describe());
    const check::DiffOutcome outcome = check::run_case(fuzz_case);
    EXPECT_TRUE(outcome.ok()) << outcome.report();
  }
}

}  // namespace
}  // namespace sb
