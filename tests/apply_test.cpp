// Tests for rule application on the grid: enumeration, physics validation
// (connectivity / no-single-line per Remark 1), and execution.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "lattice/neighborhood.hpp"
#include "lattice/ring.hpp"
#include "lattice/scenario.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/rule_xml.hpp"
#include "motion/validate.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace sb::motion {
namespace {

using lat::BlockId;
using lat::Grid;
using lat::Vec2;
using lat::WorldView;

Grid make_grid(std::initializer_list<Vec2> cells, int32_t w = 8,
               int32_t h = 8) {
  Grid grid(w, h);
  uint32_t id = 1;
  for (const Vec2 cell : cells) grid.place(BlockId{id++}, cell);
  return grid;
}

const RuleLibrary& lib() {
  static const RuleLibrary library = RuleLibrary::standard();
  return library;
}

// ---------------------------------------------------------------------------
// Applicability against views
// ---------------------------------------------------------------------------

TEST(Applicability, EastSlideOnSupportedRow) {
  // Mover at (1,1), supports at (1,0) and (2,0): the Fig. 3 situation.
  const Grid grid = make_grid({{1, 1}, {1, 0}, {2, 0}});
  const WorldView view(grid);
  const MotionRule* rule = lib().find("slide_ES");
  ASSERT_NE(rule, nullptr);
  EXPECT_TRUE(rule_applicable(*rule, view, {1, 1}));
}

TEST(Applicability, EastSlideFailsWithoutDestinationSupport) {
  const Grid grid = make_grid({{1, 1}, {1, 0}});
  const WorldView view(grid);
  EXPECT_FALSE(rule_applicable(*lib().find("slide_ES"), view, {1, 1}));
}

TEST(Applicability, EastSlideFailsWithBlockedClearance) {
  const Grid grid = make_grid({{1, 1}, {1, 0}, {2, 0}, {2, 2}});
  const WorldView view(grid);
  EXPECT_FALSE(rule_applicable(*lib().find("slide_ES"), view, {1, 1}));
}

TEST(Applicability, OutOfBoundsSupportInvalidatesPlacement) {
  // Mover on the bottom row: slide_ES would need supports below the
  // surface -> invalid placement.
  const Grid grid = make_grid({{1, 0}, {2, 0}});
  const WorldView view(grid);
  EXPECT_FALSE(placement_in_bounds(*lib().find("slide_ES"), view, {1, 0}));
  EXPECT_FALSE(rule_applicable(*lib().find("slide_ES"), view, {1, 0}));
}

TEST(Applicability, OutOfBoundsClearanceIsFine) {
  // Mover on the TOP row sliding east with south support: the required
  // clearance row is above the surface - nothing is there, so it's clear.
  Grid grid(8, 3);
  grid.place(BlockId{1}, {1, 2});
  grid.place(BlockId{2}, {1, 1});
  grid.place(BlockId{3}, {2, 1});
  const WorldView view(grid);
  EXPECT_TRUE(rule_applicable(*lib().find("slide_ES"), view, {1, 2}));
}

TEST(Applicability, WorksOnSensedNeighborhood) {
  const Grid grid = make_grid({{3, 3}, {3, 2}, {4, 2}});
  const WorldView view(grid);
  // Build the sensing window a block at (3,3) would have.
  lat::Neighborhood window({3, 3}, 2, grid.width(), grid.height());
  for (int32_t dy = -2; dy <= 2; ++dy) {
    for (int32_t dx = -2; dx <= 2; ++dx) {
      const Vec2 p = Vec2{3 + dx, 3 + dy};
      if (grid.in_bounds(p)) window.set_occupied(p, view.occupied(p));
    }
  }
  EXPECT_TRUE(rule_applicable(*lib().find("slide_ES"), window, {3, 3}));
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

TEST(Enumerate, FindsSlideAndNothingElseForIsolatedRow) {
  // Three-block row on y=0 with the mover on top at (1,1):
  const Grid grid = make_grid({{1, 1}, {0, 0}, {1, 0}, {2, 0}});
  const WorldView view(grid);
  const auto apps = enumerate_applications(lib(), view, {1, 1});
  // slide_ES (east over supports) and slide_WS (west over supports).
  std::set<std::string> names;
  for (const auto& app : apps) names.insert(app.rule->name());
  EXPECT_TRUE(names.count("slide_ES"));
  EXPECT_TRUE(names.count("slide_WS"));
  for (const auto& app : apps) {
    EXPECT_EQ(app.subject_from(), Vec2(1, 1));
  }
}

TEST(Enumerate, FindsCarryWithMoverAsSubjectOrPusher) {
  // The Fig. 6 east-carrying setup: pusher (0,1), mover (1,1), support
  // (1,0); destination (2,1) free.
  const Grid grid = make_grid({{0, 1}, {1, 1}, {1, 0}});
  const WorldView view(grid);

  const auto center_apps = enumerate_applications(lib(), view, {1, 1});
  const auto pusher_apps = enumerate_applications(lib(), view, {0, 1});
  const auto has_carry = [](const std::vector<RuleApplication>& apps,
                            Vec2 to) {
    for (const auto& app : apps) {
      if (app.rule->name().starts_with("carry_") && app.subject_to() == to) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_carry(center_apps, {2, 1}));  // carried block
  EXPECT_TRUE(has_carry(pusher_apps, {1, 1}));  // pusher as subject
}

TEST(Enumerate, EmptyForIsolatedDomino) {
  // Two adjacent blocks alone: every rule needs a third block for support,
  // so a lone domino is physically immobile (why Assumption 1 excludes
  // single-line patterns).
  const Grid grid = make_grid({{1, 1}, {2, 1}}, 6, 6);
  const WorldView view(grid);
  EXPECT_TRUE(enumerate_applications(lib(), view, {1, 1}).empty());
  EXPECT_TRUE(enumerate_applications(lib(), view, {2, 1}).empty());
}

TEST(Enumerate, SquareUnrollsViaCarry) {
  // A 2x2 square is NOT immobile: a carry can roll one column down along
  // the other (the "square unrolling" motion).
  const Grid grid = make_grid({{1, 1}, {2, 1}, {1, 2}, {2, 2}}, 4, 4);
  const WorldView view(grid);
  const auto apps = enumerate_applications(lib(), view, {1, 1});
  EXPECT_FALSE(apps.empty());
  for (const auto& app : apps) {
    EXPECT_TRUE(app.rule->name().starts_with("carry_"));
  }
}

TEST(Enumerate, DeterministicOrder) {
  const Grid grid = make_grid({{1, 1}, {1, 0}, {2, 0}});
  const WorldView view(grid);
  const auto a = enumerate_applications(lib(), view, {1, 1});
  const auto b = enumerate_applications(lib(), view, {1, 1});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].anchor, b[i].anchor);
    EXPECT_EQ(a[i].subject_move, b[i].subject_move);
  }
}

// ---------------------------------------------------------------------------
// The may-move ring table (RuleLibrary::may_move)
//
// The planner returns "no move" for a block whose ring the table rejects
// without enumerating anything, so a rejected ring must never have an
// application: checked on random sensing windows for every rejected ring
// and on every block of each scenario family, through both enumerations.
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, RuleLibrary>> table_libraries() {
  std::vector<std::pair<std::string, RuleLibrary>> out;
  out.emplace_back("standard", RuleLibrary::standard());
  for (int32_t n = 3; n <= 6; ++n) {
    out.emplace_back("trains" + std::to_string(n),
                     RuleLibrary::standard_with_trains(n));
  }
  out.emplace_back("standard_capabilities.xml",
                   load_capabilities_file(std::string(SMARTBLOCKS_DATA_DIR) +
                                          "/rules/standard_capabilities.xml"));
  return out;
}

uint8_t ring_of(const WorldView& view, Vec2 p) {
  return lat::ring_mask(view.occupancy_row(p.y + 1), view.occupancy_row(p.y),
                        view.occupancy_row(p.y - 1), p.x);
}

/// Both enumerations find nothing for the block at `mover`.
void expect_no_applications(const RuleLibrary& library,
                            const lat::Neighborhood& window, Vec2 mover,
                            const std::string& context) {
  EXPECT_TRUE(enumerate_applications(library, window, mover).empty())
      << context;
  EXPECT_TRUE(
      enumerate_applications<lat::Neighborhood>(library, window, mover)
          .empty())
      << context;
}

TEST(MayMove, BoxedInBlocksCannotMove) {
  for (const auto& [name, library] : table_libraries()) {
    EXPECT_FALSE(library.may_move(0xFF)) << name;
  }
  // The empty library accepts no ring at all.
  for (uint32_t ring = 0; ring < 256; ++ring) {
    EXPECT_FALSE(RuleLibrary().may_move(static_cast<uint8_t>(ring)));
  }
}

TEST(MayMove, RejectedRingsHaveNoApplicationInRandomWindows) {
  constexpr int kWindowsPerRing = 6;
  Rng rng(17);
  for (const auto& [name, library] : table_libraries()) {
    const int32_t radius = library.sensing_radius();
    // A surface barely wider than the window, so that most windows hang
    // over an edge; the ring itself stays on the surface.
    const int32_t side = 2 * radius + 1;
    size_t rejected_rings = 0;
    for (uint32_t ring = 0; ring < 256; ++ring) {
      if (library.may_move(static_cast<uint8_t>(ring))) continue;
      ++rejected_rings;
      for (int trial = 0; trial < kWindowsPerRing; ++trial) {
        const Vec2 center{static_cast<int32_t>(rng.next_in(1, side - 2)),
                          static_cast<int32_t>(rng.next_in(1, side - 2))};
        lat::Neighborhood window(center, radius, side, side);
        for (int32_t dy = -radius; dy <= radius; ++dy) {
          for (int32_t dx = -radius; dx <= radius; ++dx) {
            const Vec2 p = center + Vec2{dx, dy};
            if (window.in_bounds(p)) window.set_occupied(p, rng.next_bool());
          }
        }
        window.set_occupied(center, true);
        for (size_t i = 0; i < lat::kRing.size(); ++i) {
          window.set_occupied(center + lat::kRing[i], ((ring >> i) & 1) != 0);
        }
        expect_no_applications(
            library, window, center,
            name + " ring " + std::to_string(ring) + " trial " +
                std::to_string(trial));
      }
    }
    EXPECT_GT(rejected_rings, 0u) << name;
  }
}

TEST(MayMove, RejectedBlocksOfScenarioFamiliesHaveNoApplication) {
  const std::vector<lat::Scenario> scenarios = {
      lat::make_tower_scenario(32),
      lat::make_fig10_scenario(),
      lat::make_giant_blob_scenario(1000, 7),
      lat::make_giant_blob_scenario(64, 3),
      lat::make_giant_rect_scenario(1024),
      lat::make_giant_rect_scenario(64),
  };
  for (const auto& [name, library] : table_libraries()) {
    size_t rejected = 0;
    for (const lat::Scenario& scenario : scenarios) {
      sim::World world(scenario.width, scenario.height, library);
      for (const auto& [id, pos] : scenario.blocks) {
        world.grid().place(id, pos);
      }
      const WorldView view = world.view();
      for (const auto& [id, pos] : scenario.blocks) {
        if (library.may_move(ring_of(view, pos))) continue;
        ++rejected;
        expect_no_applications(library, world.sense(pos), pos,
                               name + " " + scenario.name + " block " +
                                   std::to_string(id.value));
      }
    }
    // Compact blobs and rectangles are mostly boxed-in blocks.
    EXPECT_GT(rejected, 1000u) << name;
  }
}

TEST(MayMove, DerivedFromTheRulesNotFixed) {
  // Four blocks cycling round a 2x2 square in one application: every cell
  // is a handover (code 5), so no mover needs an empty ring cell and the
  // table must accept the full ring.
  RuleLibrary library;
  library.add(MotionRule("cycle",
                         CodeMatrix::from_rows({{5, 5, 2},    //
                                                {5, 5, 2},    //
                                                {2, 2, 2}}),  //
                         {{0, {0, 0}, {0, 1}},
                          {0, {0, 1}, {1, 1}},
                          {0, {1, 1}, {1, 0}},
                          {0, {1, 0}, {0, 0}}}));
  EXPECT_TRUE(library.may_move(0xFF));
  // A boxed-in block of a 3x3 square keeps its full enumeration: it takes
  // a different place of the cycle in each of its four quadrants.
  Grid grid(5, 5);
  uint32_t id = 1;
  for (int32_t y = 1; y <= 3; ++y) {
    for (int32_t x = 1; x <= 3; ++x) grid.place(BlockId{id++}, {x, y});
  }
  const WorldView view(grid);
  EXPECT_EQ(ring_of(view, {2, 2}), 0xFF);
  EXPECT_EQ(enumerate_applications(library, view, {2, 2}).size(), 4u);

  // slide_ES fixes five ring cells (N, NE, E empty; SE, S occupied) and
  // leaves SW, W and NW free: eight rings.
  RuleLibrary slide;
  slide.add(*lib().find("slide_ES"));
  size_t slide_rings = 0;
  for (uint32_t ring = 0; ring < 256; ++ring) {
    slide_rings += slide.may_move(static_cast<uint8_t>(ring));
  }
  EXPECT_EQ(slide_rings, 8u);
  EXPECT_TRUE(slide.may_move(0b0001'1000));
  // A library's table is the union of its rules' tables.
  RuleLibrary both = library;
  both.add(*lib().find("slide_ES"));
  for (uint32_t r = 0; r < 256; ++r) {
    const auto ring = static_cast<uint8_t>(r);
    EXPECT_EQ(both.may_move(ring),
              library.may_move(ring) || slide.may_move(ring))
        << r;
  }
}

// ---------------------------------------------------------------------------
// Physics (Remark 1)
// ---------------------------------------------------------------------------

TEST(Physics, RejectsDisconnectingMove) {
  // Mover M at (1,1) slides east over supports (1,0),(2,0): matrix-valid.
  // Without a pendant the move is fine; with a pendant P at (0,1) whose
  // only contact is M, the same matrix-valid move would strand P, so the
  // physics oracle (Remark 1) rejects it.
  const MotionRule* rule = lib().find("slide_ES");
  ASSERT_NE(rule, nullptr);

  const Grid free_grid = make_grid({{1, 1}, {1, 0}, {2, 0}});
  RuleApplication app{rule, {1, 1}, 0};
  ASSERT_TRUE(rule_applicable(*rule, WorldView(free_grid), {1, 1}));
  EXPECT_TRUE(physically_valid(free_grid, app));

  const Grid pendant_grid = make_grid({{1, 1}, {1, 0}, {2, 0}, {0, 1}});
  ASSERT_TRUE(rule_applicable(*rule, WorldView(pendant_grid), {1, 1}));
  EXPECT_FALSE(physically_valid(pendant_grid, app));  // would strand (0,1)
}

TEST(Physics, RejectsSingleLineResult) {
  // Three blocks: an L whose corner move would leave a straight line.
  const Grid grid = make_grid({{1, 1}, {2, 1}, {1, 2}, {1, 0}}, 6, 6);
  // Move (2,1) somewhere that leaves a single column: slide (2,1) north
  // with west support at (1,1),(1,2): destination (2,2).
  const MotionRule* rule = lib().find("slide_NW");
  ASSERT_NE(rule, nullptr);
  RuleApplication app{rule, {2, 1}, 0};
  if (rule_applicable(*rule, WorldView(grid), {2, 1})) {
    EXPECT_TRUE(physically_valid(grid, app));  // result is not a line
  }
  // Construct an actual line-forming move: blocks (1,0),(1,1),(2,1):
  // moving (2,1) north to (2,2)? Not a line. Moving (2,1) is the only
  // option; use single_line_after_moves directly for precision:
  const Grid three = make_grid({{1, 0}, {1, 1}, {2, 1}}, 6, 6);
  EXPECT_TRUE(lat::single_line_after_moves(three, {{{2, 1}, {1, 2}}}));
  EXPECT_FALSE(lat::single_line_after_moves(three, {{{2, 1}, {2, 2}}}));
}

TEST(Physics, ApplyExecutesAllMoves) {
  Grid grid = make_grid({{0, 1}, {1, 1}, {1, 0}});
  const MotionRule* rule = lib().find("carry_ES");
  ASSERT_NE(rule, nullptr);
  // Subject = the carried center block.
  RuleApplication app{rule, {1, 1}, 0};
  ASSERT_TRUE(physically_valid(grid, app));
  apply_to_grid(grid, app);
  const WorldView view(grid);
  EXPECT_EQ(view.at({2, 1}), BlockId{2});  // carried block landed east
  EXPECT_EQ(view.at({1, 1}), BlockId{1});  // pusher took its cell
  EXPECT_FALSE(view.occupied({0, 1}));
  EXPECT_EQ(view.at({1, 0}), BlockId{3});  // support did not move
}

TEST(Physics, DescribeMentionsRuleAndCells) {
  const MotionRule* rule = lib().find("slide_ES");
  RuleApplication app{rule, {4, 2}, 0};
  const std::string text = app.describe();
  EXPECT_NE(text.find("slide_ES"), std::string::npos);
  EXPECT_NE(text.find("(4,2)"), std::string::npos);
  EXPECT_NE(text.find("(5,2)"), std::string::npos);
}

}  // namespace
}  // namespace sb::motion
