// Tests for the I/O region model (§III) and scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <vector>

#include "lattice/region.hpp"
#include "lattice/scenario.hpp"
#include "lattice/world_view.hpp"

namespace sb::lat {
namespace {

// ---------------------------------------------------------------------------
// Region / oriented graph (paper §III)
// ---------------------------------------------------------------------------

TEST(Region, BoundingRectNormalizesCorners) {
  const Rect rect = bounding_rect({5, 1}, {2, 7});
  EXPECT_EQ(rect.lo, Vec2(2, 1));
  EXPECT_EQ(rect.hi, Vec2(5, 7));
  EXPECT_EQ(rect.width(), 4);
  EXPECT_EQ(rect.height(), 7);
  EXPECT_TRUE(rect.contains({3, 3}));
  EXPECT_FALSE(rect.contains({1, 3}));
}

TEST(Region, DegenerateRectForAlignedIO) {
  const Rect rect = bounding_rect({1, 0}, {1, 10});
  EXPECT_EQ(rect.width(), 1);
  EXPECT_EQ(rect.height(), 11);
  EXPECT_TRUE(rect.contains({1, 5}));
  EXPECT_FALSE(rect.contains({0, 5}));
}

TEST(Region, OrientedDirectionsLeftUp) {
  // Fig 2: output left and above the input -> left-up oriented graph.
  const auto dirs = oriented_directions({5, 1}, {2, 7});
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], Direction::kWest);
  EXPECT_EQ(dirs[1], Direction::kNorth);
}

TEST(Region, OrientedDirectionsAligned) {
  const auto dirs = oriented_directions({1, 0}, {1, 10});
  ASSERT_EQ(dirs.size(), 1u);
  EXPECT_EQ(dirs[0], Direction::kNorth);
}

TEST(Region, OrientedGraphLinkCount) {
  // For a w x h rectangle with both directions: w*h*(2) - w - h edges
  // (each node has up to one west and one north link).
  const auto links = oriented_graph_links({3, 0}, {0, 2});  // 4 x 3 rect
  // 4*3 nodes; west links: 3 per row * 3 rows = 9; north: 4 per col * 2 = 8.
  EXPECT_EQ(links.size(), 17u);
  for (const auto& [from, to] : links) {
    EXPECT_EQ(manhattan(from, to), 1);
    // Every link points toward O (west or north here).
    EXPECT_TRUE(to.x < from.x || to.y > from.y);
  }
}

TEST(Region, ShortestPathCells) {
  EXPECT_EQ(shortest_path_cells({1, 0}, {1, 10}), 11);
  EXPECT_EQ(shortest_path_cells({0, 0}, {3, 4}), 8);
}

TEST(Region, MaxShortestPathMatchesPaper) {
  // §III: the maximum length of a shortest path is W + H - 1.
  EXPECT_EQ(max_shortest_path_cells(6, 12), 17);
  EXPECT_EQ(max_shortest_path_cells(2, 2), 3);
}

TEST(Region, OccupiedShortestPathStraight) {
  Grid grid(4, 6);
  for (int32_t y = 0; y <= 4; ++y) grid.place(BlockId{uint32_t(y + 1)}, {1, y});
  const auto path = occupied_shortest_path(grid, {1, 0}, {1, 4});
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 5u);
  EXPECT_EQ(path->front(), Vec2(1, 0));
  EXPECT_EQ(path->back(), Vec2(1, 4));
}

TEST(Region, OccupiedShortestPathStaircase) {
  // L-shaped occupied path from (0,0) to (2,2).
  Grid grid(4, 4);
  uint32_t id = 1;
  for (const Vec2 cell :
       {Vec2{0, 0}, Vec2{1, 0}, Vec2{2, 0}, Vec2{2, 1}, Vec2{2, 2}}) {
    grid.place(BlockId{id++}, cell);
  }
  const auto path = occupied_shortest_path(grid, {0, 0}, {2, 2});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
}

TEST(Region, IncompletePathReturnsNullopt) {
  Grid grid(4, 6);
  grid.place(BlockId{1}, {1, 0});
  grid.place(BlockId{2}, {1, 1});
  grid.place(BlockId{3}, {1, 4});  // gap at y=2,3
  EXPECT_FALSE(occupied_shortest_path(grid, {1, 0}, {1, 4}).has_value());
  EXPECT_FALSE(path_complete(grid, {1, 0}, {1, 4}));
}

TEST(Region, DetourDoesNotCountAsShortestPath) {
  // Occupied connection exists but is longer than Manhattan: not a
  // *shortest* path.
  Grid grid(4, 4);
  uint32_t id = 1;
  for (const Vec2 cell : {Vec2{0, 0}, Vec2{0, 1}, Vec2{1, 1}, Vec2{2, 1},
                          Vec2{2, 0}}) {
    grid.place(BlockId{id++}, cell);
  }
  // From (0,0) to (2,0): manhattan 2, but the straight cell (1,0) is empty.
  EXPECT_FALSE(path_complete(grid, {0, 0}, {2, 0}));
}

TEST(Region, StrayBlocksAreAllowed) {
  Grid grid(4, 6);
  for (int32_t y = 0; y <= 4; ++y) grid.place(BlockId{uint32_t(y + 1)}, {1, y});
  grid.place(BlockId{99}, {3, 3});  // stray spare
  EXPECT_TRUE(path_complete(grid, {1, 0}, {1, 4}));
}

// ---------------------------------------------------------------------------
// Scenario format
// ---------------------------------------------------------------------------

TEST(Scenario, ParseBasic) {
  const Scenario s = parse_scenario(
      "# comment\n"
      "name t\n"
      "size 4 5\n"
      "input 1 0\n"
      "output 1 4\n"
      "block 7 1 0\n"
      "block 8 2 0\n");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.width, 4);
  EXPECT_EQ(s.height, 5);
  EXPECT_EQ(s.input, Vec2(1, 0));
  EXPECT_EQ(s.output, Vec2(1, 4));
  ASSERT_EQ(s.blocks.size(), 2u);
  EXPECT_EQ(s.root_id(), BlockId{7});
}

TEST(Scenario, RoundTrip) {
  const Scenario original = make_fig10_scenario();
  const Scenario parsed = parse_scenario(serialize_scenario(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.width, original.width);
  EXPECT_EQ(parsed.input, original.input);
  EXPECT_EQ(parsed.output, original.output);
  EXPECT_EQ(parsed.blocks, original.blocks);
}

TEST(Scenario, ParseErrorsCarryLineNumbers) {
  try {
    (void)parse_scenario("size 4 4\ninput 0 0\nbogus 1 2\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
  }
}

TEST(Scenario, MissingSizeFails) {
  EXPECT_THROW((void)parse_scenario("input 0 0\noutput 1 1\n"),
               std::runtime_error);
}

/// The parse error for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)parse_scenario(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Scenario, RejectsNumbersThatWouldWrap) {
  // A cast straight to uint32_t / int32_t would load 4294967299 as
  // block 3.
  const std::string head = "size 4 4\ninput 0 0\noutput 3 3\n";
  EXPECT_EQ(parse_error(head + "block 4294967299 1 1\n"),
            "scenario parse error at line 4: block id 4294967299 is outside "
            "[0, 4294967294]");
  // UINT32_MAX is the invalid-id sentinel, not an id.
  EXPECT_EQ(parse_error(head + "block 4294967295 1 1\n"),
            "scenario parse error at line 4: block id 4294967295 is outside "
            "[0, 4294967294]");
  EXPECT_EQ(parse_error(head + "block -1 1 1\n"),
            "scenario parse error at line 4: block id -1 is outside "
            "[0, 4294967294]");
  EXPECT_EQ(parse_error(head + "block 1 1 -2147483649\n"),
            "scenario parse error at line 4: coordinate -2147483649 is "
            "outside [-2147483648, 2147483647]");
  EXPECT_EQ(parse_error("size 4294967300 4\n"),
            "scenario parse error at line 1: size 4294967300 is outside "
            "[-2147483648, 2147483647]");
  EXPECT_EQ(parse_error("size 4 4\ninput 2147483648 0\n"),
            "scenario parse error at line 2: coordinate 2147483648 is "
            "outside [-2147483648, 2147483647]");
  EXPECT_NE(parse_error(head + "block 99999999999999999999 1 1\n")
                .find("line 4: expected an integer"),
            std::string::npos);

  // The extremes themselves parse; validate() judges them.
  const Scenario edge = parse_scenario(
      "size 2147483647 -2147483648\ninput -2147483648 2147483647\n"
      "output 0 0\nblock 4294967294 -2147483648 2147483647\n");
  EXPECT_EQ(edge.width, INT32_MAX);
  EXPECT_EQ(edge.height, INT32_MIN);
  EXPECT_EQ(edge.input, Vec2(INT32_MIN, INT32_MAX));
  ASSERT_EQ(edge.blocks.size(), 1u);
  EXPECT_EQ(edge.blocks[0].first, BlockId{UINT32_MAX - 1});
}

TEST(Scenario, ToGridPlacesAllBlocks) {
  const Scenario s = make_fig10_scenario();
  const Grid grid = s.to_grid();
  EXPECT_EQ(grid.block_count(), 12u);
  EXPECT_TRUE(WorldView(grid).occupied(s.input));
}

// ---------------------------------------------------------------------------
// Validation (the paper's assumptions)
// ---------------------------------------------------------------------------

TEST(ScenarioValidate, Fig10IsValid) {
  EXPECT_TRUE(validate(make_fig10_scenario()).empty());
}

TEST(ScenarioValidate, RejectsMissingRoot) {
  Scenario s = make_fig10_scenario();
  s.input = {0, 0};  // no block there
  const auto issues = validate(s);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("input"), std::string::npos);
}

TEST(ScenarioValidate, RejectsOccupiedOutput) {
  Scenario s = make_fig10_scenario();
  s.output = {2, 3};  // a blob cell
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsDisconnectedBlocks) {
  Scenario s = make_fig10_scenario();
  s.blocks.emplace_back(BlockId{99}, Vec2{5, 11});
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsSingleLine) {
  // Assumption 1 excludes a pure column of blocks (enough blocks for the
  // path, so the single-line issue is the only one).
  Scenario s;
  s.width = 5;
  s.height = 8;
  s.input = {1, 0};
  s.output = {3, 2};  // 5 path cells
  for (uint32_t y = 0; y < 6; ++y) {
    s.blocks.emplace_back(BlockId{y + 1}, Vec2{1, static_cast<int32_t>(y)});
  }
  const auto issues = validate(s);
  ASSERT_FALSE(issues.empty());
  bool mentions_line = false;
  for (const auto& issue : issues) {
    mentions_line |= issue.find("single") != std::string::npos;
  }
  EXPECT_TRUE(mentions_line);
}

TEST(ScenarioValidate, RejectsTooFewBlocks) {
  Scenario s;
  s.width = 4;
  s.height = 12;
  s.input = {1, 0};
  s.output = {1, 10};  // 11 path cells
  s.blocks = {{BlockId{1}, {1, 0}}, {BlockId{2}, {2, 0}},
              {BlockId{3}, {1, 1}}};
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsDuplicates) {
  Scenario s = make_fig10_scenario();
  s.blocks.emplace_back(BlockId{1}, Vec2{4, 4});  // duplicate id
  EXPECT_FALSE(validate(s).empty());

  Scenario t = make_fig10_scenario();
  t.blocks.emplace_back(BlockId{99}, t.blocks.front().second);  // shared cell
  EXPECT_FALSE(validate(t).empty());
}

TEST(ScenarioValidate, RejectsOutOfBoundsIO) {
  Scenario s = make_fig10_scenario();
  s.output = {99, 99};
  EXPECT_FALSE(validate(s).empty());
}

TEST(ScenarioValidate, RejectsInputEqualsOutput) {
  Scenario s = make_fig10_scenario();
  s.output = s.input;
  EXPECT_FALSE(validate(s).empty());
}

// Exact issue lists, one malformed scenario per rule plus mixed cases that
// pin the order rules report in. Each case edits a 2x3 tower on a 5x6
// surface (I = (1,0), O = (1,4): a 5-cell path for 6 blocks).
Scenario small_tower() {
  Scenario s;
  s.name = "pinned";
  s.width = 5;
  s.height = 6;
  s.input = {1, 0};
  s.output = {1, 4};
  uint32_t id = 1;
  for (int32_t y = 0; y < 3; ++y) {
    for (int32_t x = 1; x < 3; ++x) {
      s.blocks.emplace_back(BlockId{id++}, Vec2{x, y});
    }
  }
  return s;
}

/// A row of blocks at y = 0 on an 8x6 surface, x = 1..7 except `gap`.
Scenario block_row(int32_t gap) {
  Scenario s = small_tower();
  s.width = 8;
  s.blocks.clear();
  uint32_t id = 1;
  for (int32_t x = 1; x < 8; ++x) {
    if (x != gap) s.blocks.emplace_back(BlockId{id++}, Vec2{x, 0});
  }
  return s;
}

TEST(ScenarioValidate, ReportsExactIssuesInOrder) {
  const std::string kRoot =
      "no block on the input cell (Assumption 2 requires the Root at I)";
  const std::string kDisconnected = "blocks are not connected (Assumption 1)";
  const std::string kSingleLine =
      "blocks form a single row/column (excluded by Assumption 1: such a "
      "pattern cannot support any motion)";
  struct Case {
    const char* rule;
    Scenario scenario;
    std::vector<std::string> issues;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* rule, auto edit,
                       std::vector<std::string> issues) {
    Scenario s = small_tower();
    edit(s);
    cases.push_back({rule, std::move(s), std::move(issues)});
  };

  add("valid", [](Scenario&) {}, {});
  add("non-positive size", [](Scenario& s) { s.width = 0; },
      {"surface dimensions must be positive, got 0x6"});
  add("invalid id", [](Scenario& s) { s.blocks[5].first = BlockId{}; },
      {"invalid block id in scenario"});
  add("repeated invalid id",
      [](Scenario& s) { s.blocks[4].first = s.blocks[5].first = BlockId{}; },
      {"invalid block id in scenario", "invalid block id in scenario",
       "duplicate block id #invalid"});
  add("duplicate id", [](Scenario& s) { s.blocks[5].first = BlockId{2}; },
      {"duplicate block id #2"});
  add("out-of-bounds block", [](Scenario& s) { s.blocks[5].second = {7, 2}; },
      {"block #6 at (7,2) is outside the surface"});
  add("shared cell", [](Scenario& s) { s.blocks[5].second = {1, 2}; },
      {"two blocks share cell (1,2)"});
  add("missing Root", [](Scenario& s) { s.input = {0, 0}; }, {kRoot});
  add("occupied O", [](Scenario& s) { s.output = {2, 2}; },
      {"the output cell must start empty"});
  add("too few blocks", [](Scenario& s) { s.output = {4, 5}; },
      {"only 6 blocks for a 9-cell shortest path; the path cannot be built"});
  add("disconnected", [](Scenario& s) { s.blocks[5].second = {4, 4}; },
      {kDisconnected});
  add("I off the surface", [](Scenario& s) { s.input = {-1, 0}; },
      {"input (-1,0) is outside the surface"});
  add("O off the surface", [](Scenario& s) { s.output = {1, 6}; },
      {"output (1,6) is outside the surface"});
  add("I and O off the surface",
      [](Scenario& s) {
        s.input = {5, 0};
        s.output = {5, 0};
      },
      {"input (5,0) is outside the surface",
       "output (5,0) is outside the surface", "input and output must differ"});
  add("I == O", [](Scenario& s) { s.output = s.input; },
      {"input and output must differ"});
  add("per-block issues in block order",
      [](Scenario& s) {
        s.blocks[1] = {BlockId{}, {9, 9}};
        s.blocks[3] = {BlockId{1}, {1, 0}};
        s.blocks[4] = {BlockId{1}, {-1, 2}};
      },
      {"invalid block id in scenario",
       "block #invalid at (9,9) is outside the surface",
       "duplicate block id #1", "two blocks share cell (1,0)",
       "duplicate block id #1", "block #1 at (-1,2) is outside the surface"});
  add("late rules accumulate",
      [](Scenario& s) {
        s.input = {0, 5};
        s.output = {2, 1};
        s.blocks[5].second = {4, 5};
      },
      {kRoot, "the output cell must start empty",
       "only 6 blocks for a 7-cell shortest path; the path cannot be built",
       kDisconnected});
  add("no blocks", [](Scenario& s) { s.blocks.clear(); },
      {kRoot,
       "only 0 blocks for a 5-cell shortest path; the path cannot be built"});
  add("lone Root",
      [](Scenario& s) { s.blocks.resize(1); },
      {"only 1 blocks for a 5-cell shortest path; the path cannot be built"});
  cases.push_back({"single line", block_row(/*gap=*/0), {kSingleLine}});
  cases.push_back({"broken single line", block_row(/*gap=*/4),
                   {kDisconnected, kSingleLine}});

  for (const Case& c : cases) {
    EXPECT_EQ(validate(c.scenario), c.issues) << c.rule;
  }
}

TEST(ScenarioValidate, ReportsIdsAboveTheDenseIdLimit) {
  // Grid::place asserts this bound; validate() reports it instead, so an
  // oversized id in a .surf file is an error, not an abort.
  Scenario s = small_tower();
  s.blocks[5].first = BlockId{Grid::kMaxBlockIdValue};
  EXPECT_TRUE(validate(s).empty());
  s.blocks[4].first = BlockId{Grid::kMaxBlockIdValue + 1};
  s.blocks[5].first = BlockId{UINT32_MAX - 1};
  EXPECT_EQ(validate(s),
            (std::vector<std::string>{
                "block id #67108864 exceeds the dense-id limit (67108863); "
                "renumber the scenario's blocks",
                "block id #4294967294 exceeds the dense-id limit (67108863); "
                "renumber the scenario's blocks"}));
}

TEST(ScenarioValidate, ReportsSurfacesAboveTheCellLimit) {
  // validate() allocates a byte per cell; a surface above 2^26 cells is
  // one issue, reported before anything is allocated.
  Scenario s = small_tower();
  s.width = 100000;
  s.height = 100000;
  EXPECT_EQ(validate(s),
            (std::vector<std::string>{
                "surface 100000x100000 has 10000000000 cells, above the "
                "limit of 67108864"}));
  s.width = INT32_MAX;
  s.height = INT32_MAX;
  EXPECT_EQ(validate(s),
            (std::vector<std::string>{
                "surface 2147483647x2147483647 has 4611686014132420609 "
                "cells, above the limit of 67108864"}));
  s.width = 8192;
  s.height = 8193;  // one row past the limit
  EXPECT_EQ(validate(s).size(), 1u);
  s.height = 8192;  // exactly 2^26 cells
  EXPECT_TRUE(validate(s).empty());
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(ScenarioGen, Fig10MatchesPaperNumbers) {
  const Scenario s = make_fig10_scenario();
  EXPECT_EQ(s.block_count(), 12u);  // twelve blocks (paper §V.D)
  // "shortest path distance between I and O equal to eleven" (11 cells).
  EXPECT_EQ(shortest_path_cells(s.input, s.output), 11);
  EXPECT_EQ(s.input.x, s.output.x);  // same column, as in Fig 10
}

TEST(ScenarioGen, TowerHasLemmaExtremalShape) {
  for (int32_t k : {2, 3, 5, 8}) {
    const Scenario s = make_tower_scenario(k);
    EXPECT_TRUE(validate(s).empty()) << "tower " << k;
    // Lemma 1: N blocks for a path of N-1 cells.
    EXPECT_EQ(static_cast<int32_t>(s.block_count()),
              shortest_path_cells(s.input, s.output) + 1);
  }
}

TEST(ScenarioGen, RandomBlobIsValidAndDeterministic) {
  BlobParams params;
  params.surface_width = 12;
  params.surface_height = 12;
  params.input = {2, 1};
  params.output = {9, 9};
  params.block_count = 20;
  Rng rng_a(77);
  Rng rng_b(77);
  const Scenario a = random_blob_scenario(params, rng_a);
  const Scenario b = random_blob_scenario(params, rng_b);
  EXPECT_TRUE(validate(a).empty());
  EXPECT_EQ(a.blocks, b.blocks);  // deterministic for equal RNG state
  EXPECT_EQ(a.block_count(), 20u);
}

TEST(ScenarioGen, RandomBlobAvoidsOutputAlignment) {
  BlobParams params;
  params.surface_width = 14;
  params.surface_height = 14;
  params.input = {2, 2};
  params.output = {10, 10};
  params.block_count = 30;
  Rng rng(5);
  const Scenario s = random_blob_scenario(params, rng);
  const Rect rect = bounding_rect(params.input, params.output);
  for (const auto& [id, pos] : s.blocks) {
    if (pos == params.input) continue;
    const bool aligned = pos.x == params.output.x || pos.y == params.output.y;
    EXPECT_FALSE(aligned && rect.contains(pos))
        << "block " << id << " starts frozen at " << pos;
  }
}

// One attempt of the blob generator as it was when picks indexed sorted
// std::vector pools, kept as the reference the current generator must match
// draw for draw. nullopt where the frontier runs dry, on which that
// generator aborted.
std::optional<Scenario> reference_try_blob(const BlobParams& params,
                                           Rng& rng) {
  Scenario s;
  s.name = "blob";
  s.width = params.surface_width;
  s.height = params.surface_height;
  s.input = params.input;
  s.output = params.output;
  const Rect rect = bounding_rect(params.input, params.output);
  const auto forbidden = [&](Vec2 p) {
    if (p == params.output) return true;
    if (!params.avoid_output_alignment || p == params.input) return false;
    return rect.contains(p) &&
           (p.x == params.output.x || p.y == params.output.y);
  };
  const auto in_bounds = [&](Vec2 p) {
    return p.x >= 0 && p.x < params.surface_width && p.y >= 0 &&
           p.y < params.surface_height;
  };
  const auto cell_index = [&](Vec2 p) {
    return static_cast<size_t>(p.y) *
               static_cast<size_t>(params.surface_width) +
           static_cast<size_t>(p.x);
  };
  const size_t cell_count = static_cast<size_t>(params.surface_width) *
                            static_cast<size_t>(params.surface_height);
  std::vector<uint8_t> occupied(cell_count, 0);
  std::vector<uint8_t> in_frontier(cell_count, 0);
  std::vector<uint8_t> in_pockets(cell_count, 0);
  std::vector<uint8_t> support(cell_count, 0);
  occupied[cell_index(params.input)] = 1;
  size_t blob_size = 1;
  std::vector<Vec2> frontier;
  std::vector<Vec2> pockets;
  const auto sorted_insert = [](std::vector<Vec2>& pool, Vec2 q) {
    pool.insert(std::lower_bound(pool.begin(), pool.end(), q), q);
  };
  const auto sorted_erase = [](std::vector<Vec2>& pool, Vec2 q) {
    pool.erase(std::lower_bound(pool.begin(), pool.end(), q));
  };
  const auto add_frontier_around = [&](Vec2 p) {
    for (Direction d : all_directions()) {
      const Vec2 q = p + delta(d);
      if (!in_bounds(q)) continue;
      const size_t qi = cell_index(q);
      if (occupied[qi] || in_frontier[qi] || forbidden(q)) continue;
      in_frontier[qi] = 1;
      uint8_t count = 0;
      for (Direction e : all_directions()) {
        const Vec2 r = q + delta(e);
        count += in_bounds(r) && occupied[cell_index(r)] ? 1 : 0;
      }
      support[qi] = count;
      sorted_insert(frontier, q);
      if (count >= 2) {
        in_pockets[qi] = 1;
        sorted_insert(pockets, q);
      }
    }
  };
  add_frontier_around(params.input);
  while (static_cast<int32_t>(blob_size) < params.block_count) {
    if (frontier.empty()) return std::nullopt;
    const bool use_pockets =
        !pockets.empty() && rng.next_bool(params.compactness);
    const std::vector<Vec2>& pool = use_pockets ? pockets : frontier;
    const Vec2 pick = pool[rng.pick_index(pool)];
    const size_t pick_cell = cell_index(pick);
    occupied[pick_cell] = 1;
    in_frontier[pick_cell] = 0;
    sorted_erase(frontier, pick);
    if (in_pockets[pick_cell]) {
      in_pockets[pick_cell] = 0;
      sorted_erase(pockets, pick);
    }
    ++blob_size;
    for (Direction d : all_directions()) {
      const Vec2 q = pick + delta(d);
      if (!in_bounds(q)) continue;
      const size_t qi = cell_index(q);
      if (!in_frontier[qi]) continue;
      if (++support[qi] == 2) {
        in_pockets[qi] = 1;
        sorted_insert(pockets, q);
      }
    }
    add_frontier_around(pick);
  }
  uint32_t next_id = 1;
  for (int32_t y = 0; y < params.surface_height; ++y) {
    for (int32_t x = 0; x < params.surface_width; ++x) {
      if (occupied[cell_index({x, y})]) {
        s.blocks.emplace_back(BlockId{next_id++}, Vec2{x, y});
      }
    }
  }
  return s;
}

// The reference's retry loop: the first attempt that passes validate(),
// or nullopt where the generator aborted (a dry frontier, or 100 attempts
// that all fail).
struct ReferenceBlob {
  Scenario scenario;
  int attempts = 0;
};

std::optional<ReferenceBlob> reference_blob(const BlobParams& params,
                                            Rng& rng) {
  for (int attempt = 1; attempt <= 100; ++attempt) {
    std::optional<Scenario> s = reference_try_blob(params, rng);
    if (!s) return std::nullopt;
    if (validate(*s).empty()) return ReferenceBlob{std::move(*s), attempt};
  }
  return std::nullopt;
}

TEST(ScenarioGen, RandomBlobMatchesTheSortedPoolReference) {
  // Random parameter sets from a fixed meta-seed: surfaces of 4-64 cells a
  // side, compactness across [0, 1], both alignment modes. Most sets place
  // I and O anywhere and fill up to 60 % of the surface; a quarter put O
  // within two cells of I and grow at most two spare blocks, whose straight
  // lines fail validate() and make the generator retry. Equal blobs and
  // equal RNG states afterwards mean equal draws, retries included.
  Rng meta(0xb10bULL);
  int compared = 0;
  int retried = 0;
  int skipped = 0;
  while (compared < 2000) {
    BlobParams params;
    params.surface_width = static_cast<int32_t>(meta.next_in(4, 64));
    params.surface_height = static_cast<int32_t>(meta.next_in(4, 64));
    const auto inside = [&](Vec2 p) {
      return p.x >= 0 && p.x < params.surface_width && p.y >= 0 &&
             p.y < params.surface_height;
    };
    const auto random_cell = [&] {
      return Vec2{static_cast<int32_t>(meta.next_in(
                      0, params.surface_width - 1)),
                  static_cast<int32_t>(
                      meta.next_in(0, params.surface_height - 1))};
    };
    const bool near = meta.next_bool(0.25);
    params.input = random_cell();
    do {
      params.output =
          near ? params.input + Vec2{static_cast<int32_t>(meta.next_in(-2, 2)),
                                     static_cast<int32_t>(meta.next_in(-2, 2))}
               : random_cell();
    } while (params.output == params.input || !inside(params.output));
    const int32_t path_cells =
        shortest_path_cells(params.input, params.output);
    const int32_t most_blocks =
        near ? path_cells + 2
             : std::max(path_cells, params.surface_width *
                                        params.surface_height * 3 / 5);
    params.block_count =
        static_cast<int32_t>(meta.next_in(path_cells, most_blocks));
    params.compactness = meta.next_double();
    params.avoid_output_alignment = meta.next_bool();
    const uint64_t seed = meta.next();

    Rng reference_rng(seed);
    const std::optional<ReferenceBlob> expected =
        reference_blob(params, reference_rng);
    if (!expected) {
      ++skipped;
      ASSERT_LT(skipped, 20000) << "too few parameter sets can grow a blob";
      continue;
    }
    Rng rng(seed);
    const Scenario actual = random_blob_scenario(params, rng);
    ASSERT_EQ(actual.blocks, expected->scenario.blocks)
        << "set " << compared << ": " << params.surface_width << "x"
        << params.surface_height << " I=" << params.input
        << " O=" << params.output << " N=" << params.block_count
        << " compactness=" << params.compactness
        << " avoid=" << params.avoid_output_alignment << " seed=" << seed;
    ASSERT_EQ(rng.next(), reference_rng.next()) << "set " << compared;
    retried += expected->attempts > 1 ? 1 : 0;
    ++compared;
  }
  EXPECT_GT(retried, 0) << "no parameter set exercised a retry";
}

TEST(ScenarioGen, RectangleScenario) {
  const Scenario s =
      make_rectangle_scenario(10, 10, {1, 1}, 3, 4, {1, 1}, {8, 8});
  EXPECT_EQ(s.block_count(), 12u);
  const Grid grid = s.to_grid();
  EXPECT_TRUE(WorldView(grid).occupied({3, 4}));
  EXPECT_FALSE(WorldView(grid).occupied({4, 5}));
}

// ---------------------------------------------------------------------------
// resolve_scenario — the CLI scenario vocabulary shared by tools/sweep,
// examples/large_scale, and the benches.
// ---------------------------------------------------------------------------

TEST(ResolveScenario, ParsesSizedNames) {
  EXPECT_EQ(parse_sized_scenario_name("tower64", "tower"), 64);
  EXPECT_EQ(parse_sized_scenario_name("blob100000", "blob"), 100000);
  EXPECT_EQ(parse_sized_scenario_name("tower", "tower"), -1);    // no digits
  EXPECT_EQ(parse_sized_scenario_name("tower6x", "tower"), -1);  // junk tail
  EXPECT_EQ(parse_sized_scenario_name("blob64", "tower"), -1);   // bad prefix
  EXPECT_EQ(parse_sized_scenario_name("xtower64", "tower"), -1);  // infix
}

TEST(ResolveScenario, TowerBlobRectAndFig10) {
  const Scenario tower = resolve_scenario("tower16");
  EXPECT_EQ(tower.block_count(), 16u);
  EXPECT_TRUE(validate(tower).empty());

  const Scenario blob = resolve_scenario("blob64", 0x5eed);
  EXPECT_EQ(blob.block_count(), 64u);
  EXPECT_TRUE(validate(blob).empty());

  const Scenario rect = resolve_scenario("rect100");
  EXPECT_GE(rect.block_count(), 64u);
  EXPECT_TRUE(validate(rect).empty());

  EXPECT_EQ(resolve_scenario("fig10").block_count(), 12u);
}

TEST(ResolveScenario, BlobIsDeterministicPerSeed) {
  const Scenario a = resolve_scenario("blob128", 42);
  const Scenario b = resolve_scenario("blob128", 42);
  const Scenario c = resolve_scenario("blob128", 43);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_NE(a.blocks, c.blocks);
}

/// FNV-1a of the scenario's text form: name, surface, I/O and every block.
uint64_t scenario_digest(const Scenario& s) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : serialize_scenario(s)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ResolveScenario, BlobsKeepTheirRecordedDigests) {
  // Recorded from the sorted-vector generator; a change to the pools or to
  // the draws that moves any block fails here.
  struct Case {
    const char* name;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {"blob64", 0x5eed, 0xde4e3dfd54dea2afULL},
      {"blob64", 7, 0xb6ad3d857940a25aULL},
      {"blob1000", 0x5eed, 0xc8c648378a1a3e6dULL},
      {"blob1000", 7, 0x24f5d736d90bd808ULL},
      {"blob20000", 0x5eed, 0xe10a0c7fbc920a99ULL},
      {"blob20000", 7, 0xe84b265345f9ab67ULL},
      {"blob100000", 0x5eed, 0x62d72e7c83f2361aULL},
      {"blob100000", 7, 0xd9861edcfcad2dc1ULL},
  };
  for (const Case& c : cases) {
    const uint64_t digest = scenario_digest(resolve_scenario(c.name, c.seed));
    EXPECT_EQ(digest, c.digest) << c.name << " seed " << c.seed
                                << ": actual digest 0x" << std::hex << digest;
  }
}

TEST(ResolveScenario, RejectsBadSizes) {
  EXPECT_THROW(resolve_scenario("tower15"), std::runtime_error);  // odd
  EXPECT_THROW(resolve_scenario("tower2"), std::runtime_error);   // too small
  EXPECT_THROW(resolve_scenario("blob63"), std::runtime_error);
  EXPECT_THROW(resolve_scenario("blob10000001"), std::runtime_error);
  EXPECT_THROW(resolve_scenario("rect1"), std::runtime_error);
}

TEST(ResolveScenario, FallsBackToScenarioFiles) {
  const Scenario s =
      resolve_scenario(std::string(SMARTBLOCKS_DATA_DIR) +
                       "/scenarios/fig10.surf");
  EXPECT_EQ(s.block_count(), 12u);
  EXPECT_THROW(resolve_scenario("no/such/file.surf"), std::runtime_error);
}

/// What resolve_scenario throws for a file holding `text`.
std::string resolve_error(const std::string& file, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + file;
  std::ofstream(path) << text;
  try {
    (void)resolve_scenario(path);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(ResolveScenario, RejectsInvalidScenarioFiles) {
  // Files are validated on load, so a bad one is an error here, not a
  // failed precondition in the session or in Grid::place.
  const std::string head = "size 5 6\ninput 1 0\noutput 1 4\n";
  const std::string tower =
      "block 1 1 0\nblock 2 2 0\nblock 3 1 1\nblock 4 2 1\nblock 5 1 2\n";
  const std::string shared = resolve_error(
      "region_shared_cell.surf", head + tower + "block 6 1 2\n");
  EXPECT_NE(shared.find("region_shared_cell.surf' is invalid: two blocks "
                        "share cell (1,2)"),
            std::string::npos)
      << shared;
  const std::string oversized = resolve_error(
      "region_big_id.surf", head + tower + "block 67108864 2 2\n");
  EXPECT_NE(oversized.find("region_big_id.surf' is invalid: block id "
                           "#67108864 exceeds the dense-id limit"),
            std::string::npos)
      << oversized;
  // 2^32 + 6 would wrap to block 6 and make a valid scenario.
  const std::string wrapped = resolve_error(
      "region_wrapped_id.surf", head + tower + "block 4294967302 2 2\n");
  EXPECT_NE(wrapped.find("line 9: block id 4294967302 is outside"),
            std::string::npos)
      << wrapped;
  EXPECT_EQ(resolve_error("region_valid.surf", head + tower +
                                                   "block 6 2 2\n"),
            "");
}

}  // namespace
}  // namespace sb::lat
