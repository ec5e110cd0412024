// Tests for connectivity analysis (the physics behind Remark 1).

#include <gtest/gtest.h>

#include "lattice/connectivity.hpp"

namespace sb::lat {
namespace {

Grid make_grid(std::initializer_list<Vec2> cells, int32_t w = 8,
               int32_t h = 8) {
  Grid grid(w, h);
  uint32_t id = 1;
  for (const Vec2 cell : cells) grid.place(BlockId{id++}, cell);
  return grid;
}

TEST(Connectivity, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(is_connected(make_grid({})));
  EXPECT_TRUE(is_connected(make_grid({{3, 3}})));
}

TEST(Connectivity, AdjacentPairConnected) {
  EXPECT_TRUE(is_connected(make_grid({{1, 1}, {1, 2}})));
}

TEST(Connectivity, DiagonalPairNotConnected) {
  // Diagonal contact is no contact (side sensors only).
  EXPECT_FALSE(is_connected(make_grid({{1, 1}, {2, 2}})));
}

TEST(Connectivity, BlobWithHoleConnected) {
  // A ring: connected even though it encloses an empty cell.
  EXPECT_TRUE(is_connected(make_grid({{1, 1},
                                      {2, 1},
                                      {3, 1},
                                      {1, 2},
                                      {3, 2},
                                      {1, 3},
                                      {2, 3},
                                      {3, 3}})));
}

TEST(Connectivity, ConnectedAfterValidMove) {
  // (2,1) slides north to (2,2): stays attached to (1,1)? No - (2,2) is
  // adjacent to nothing else, but the mover leaves; check a real case:
  // L-shape, the tip moves but remains adjacent to the corner.
  const Grid grid = make_grid({{1, 1}, {2, 1}, {1, 2}});
  EXPECT_TRUE(connected_after_moves(grid, {{{2, 1}, {2, 2}}}));  // hugs corner? no:
  // (2,2) is adjacent to (1,2) which is occupied -> connected.
}

TEST(Connectivity, DisconnectedAfterBadMove) {
  const Grid grid = make_grid({{1, 1}, {2, 1}});
  // Moving (2,1) east detaches it from (1,1).
  EXPECT_FALSE(connected_after_moves(grid, {{{2, 1}, {3, 1}}}));
}

TEST(Connectivity, HandoverKeepsConnectivity) {
  // Carry: (1,1)->(2,1) while (0,1)->(1,1), support at (1,0).
  const Grid grid = make_grid({{0, 1}, {1, 1}, {1, 0}});
  EXPECT_TRUE(
      connected_after_moves(grid, {{{1, 1}, {2, 1}}, {{0, 1}, {1, 1}}}));
}

TEST(Connectivity, MoveThatSplitsBridge) {
  // A 3-in-a-row: lifting the middle block north strands both ends.
  const Grid grid = make_grid({{0, 0}, {1, 0}, {2, 0}});
  EXPECT_FALSE(connected_after_moves(grid, {{{1, 0}, {1, 1}}}));
}

TEST(Connectivity, BridgeWithAlternatePathSurvives) {
  // Same move, but a top rail keeps everything connected.
  const Grid grid = make_grid({{0, 0}, {1, 0}, {2, 0}, {0, 1}, {2, 1}});
  EXPECT_TRUE(connected_after_moves(grid, {{{1, 0}, {1, 1}}}));
}

TEST(SingleLine, DetectsRowAndColumn) {
  EXPECT_TRUE(is_single_line(make_grid({{0, 3}, {1, 3}, {2, 3}})));
  EXPECT_TRUE(is_single_line(make_grid({{2, 0}, {2, 1}, {2, 5}})));
  EXPECT_FALSE(is_single_line(make_grid({{0, 0}, {1, 0}, {1, 1}})));
  EXPECT_TRUE(is_single_line(make_grid({{4, 4}})));
  EXPECT_TRUE(is_single_line(make_grid({})));
}

}  // namespace
}  // namespace sb::lat
