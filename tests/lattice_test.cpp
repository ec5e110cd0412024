// Tests for coordinates, directions, and the occupancy grid.

#include <gtest/gtest.h>

#include "lattice/direction.hpp"
#include "lattice/grid.hpp"
#include "lattice/vec2.hpp"
#include "lattice/world_view.hpp"

namespace sb::lat {
namespace {

// ---------------------------------------------------------------------------
// Vec2
// ---------------------------------------------------------------------------

TEST(Vec2, Arithmetic) {
  EXPECT_EQ(Vec2(1, 2) + Vec2(3, -1), Vec2(4, 1));
  EXPECT_EQ(Vec2(1, 2) - Vec2(3, -1), Vec2(-2, 3));
  Vec2 v{0, 0};
  v += {2, 5};
  EXPECT_EQ(v, Vec2(2, 5));
}

TEST(Vec2, ManhattanMatchesEq10) {
  // Eq (10): |Ox-Bx| + |Oy-By|.
  EXPECT_EQ(manhattan({1, 0}, {1, 10}), 10);
  EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
  EXPECT_EQ(manhattan({2, 2}, {2, 2}), 0);
}

TEST(Vec2, Chebyshev) {
  EXPECT_EQ(chebyshev({0, 0}, {3, 1}), 3);
  EXPECT_EQ(chebyshev({0, 0}, {1, 4}), 4);
}

TEST(Vec2, Adjacent4) {
  EXPECT_TRUE(adjacent4({2, 2}, {2, 3}));
  EXPECT_TRUE(adjacent4({2, 2}, {1, 2}));
  EXPECT_FALSE(adjacent4({2, 2}, {3, 3}));  // diagonal is not a contact
  EXPECT_FALSE(adjacent4({2, 2}, {2, 2}));
}

TEST(Vec2, RowMajorOrder) {
  EXPECT_LT(Vec2(5, 0), Vec2(0, 1));  // lower row first
  EXPECT_LT(Vec2(0, 1), Vec2(1, 1));  // then lower column
}

TEST(Vec2, HashSpreadsValues) {
  Vec2Hash hash;
  EXPECT_NE(hash({0, 1}), hash({1, 0}));
}

// ---------------------------------------------------------------------------
// Direction
// ---------------------------------------------------------------------------

TEST(Direction, DeltasAreUnitVectors) {
  EXPECT_EQ(delta(Direction::kNorth), Vec2(0, 1));
  EXPECT_EQ(delta(Direction::kEast), Vec2(1, 0));
  EXPECT_EQ(delta(Direction::kSouth), Vec2(0, -1));
  EXPECT_EQ(delta(Direction::kWest), Vec2(-1, 0));
}

TEST(Direction, OppositeIsInvolution) {
  for (Direction d : all_directions()) {
    EXPECT_EQ(opposite(opposite(d)), d);
    EXPECT_EQ(delta(d) + delta(opposite(d)), Vec2(0, 0));
  }
}

TEST(Direction, RotationCycle) {
  EXPECT_EQ(rotate_cw(Direction::kNorth), Direction::kEast);
  EXPECT_EQ(rotate_cw(Direction::kEast), Direction::kSouth);
  EXPECT_EQ(rotate_cw(Direction::kSouth), Direction::kWest);
  EXPECT_EQ(rotate_cw(Direction::kWest), Direction::kNorth);
  for (Direction d : all_directions()) {
    EXPECT_EQ(rotate_ccw(rotate_cw(d)), d);
  }
}

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

TEST(Grid, StartsEmpty) {
  const Grid grid(4, 3);
  const WorldView view(grid);
  EXPECT_EQ(grid.width(), 4);
  EXPECT_EQ(grid.height(), 3);
  EXPECT_EQ(grid.cell_count(), 12u);
  EXPECT_EQ(grid.block_count(), 0u);
  EXPECT_FALSE(view.occupied({0, 0}));
}

TEST(Grid, BoundsChecks) {
  const Grid grid(4, 3);
  const WorldView view(grid);
  EXPECT_TRUE(grid.in_bounds({0, 0}));
  EXPECT_TRUE(grid.in_bounds({3, 2}));
  EXPECT_FALSE(grid.in_bounds({4, 0}));
  EXPECT_FALSE(grid.in_bounds({0, 3}));
  EXPECT_FALSE(grid.in_bounds({-1, 0}));
  // Out-of-bounds queries report empty, not a crash.
  EXPECT_FALSE(view.occupied({-1, -1}));
  EXPECT_EQ(view.at({99, 99}), kInvalidBlock);
}

TEST(Grid, PlaceAndQuery) {
  Grid grid(4, 4);
  const WorldView view(grid);
  grid.place(BlockId{7}, {1, 2});
  EXPECT_TRUE(view.occupied({1, 2}));
  EXPECT_EQ(view.at({1, 2}), BlockId{7});
  EXPECT_EQ(view.position_of(BlockId{7}), Vec2(1, 2));
  EXPECT_TRUE(view.contains(BlockId{7}));
  EXPECT_FALSE(view.contains(BlockId{8}));
  EXPECT_EQ(grid.block_count(), 1u);
}

TEST(Grid, RemoveReturnsId) {
  Grid grid(4, 4);
  const WorldView view(grid);
  grid.place(BlockId{3}, {0, 0});
  EXPECT_EQ(grid.remove({0, 0}), BlockId{3});
  EXPECT_FALSE(view.occupied({0, 0}));
  EXPECT_EQ(grid.block_count(), 0u);
}

TEST(Grid, MoveUpdatesBothMaps) {
  Grid grid(4, 4);
  const WorldView view(grid);
  grid.place(BlockId{1}, {0, 0});
  grid.move({0, 0}, {1, 0});
  EXPECT_FALSE(view.occupied({0, 0}));
  EXPECT_EQ(view.at({1, 0}), BlockId{1});
  EXPECT_EQ(view.position_of(BlockId{1}), Vec2(1, 0));
}

TEST(Grid, SimultaneousHandoverChain) {
  // A -> B while B -> C: the carrying rule's signature move pattern.
  Grid grid(5, 1);
  const WorldView view(grid);
  grid.place(BlockId{1}, {0, 0});
  grid.place(BlockId{2}, {1, 0});
  grid.move_simultaneously({{{1, 0}, {2, 0}}, {{0, 0}, {1, 0}}});
  EXPECT_EQ(view.at({1, 0}), BlockId{1});
  EXPECT_EQ(view.at({2, 0}), BlockId{2});
  EXPECT_FALSE(view.occupied({0, 0}));
}

TEST(Grid, SimultaneousSwapOrderIndependent) {
  // The same handover expressed in the opposite declaration order.
  Grid grid(5, 1);
  const WorldView view(grid);
  grid.place(BlockId{1}, {0, 0});
  grid.place(BlockId{2}, {1, 0});
  grid.move_simultaneously({{{0, 0}, {1, 0}}, {{1, 0}, {2, 0}}});
  EXPECT_EQ(view.at({1, 0}), BlockId{1});
  EXPECT_EQ(view.at({2, 0}), BlockId{2});
}

TEST(GridDeath, CollisionAborts) {
  Grid grid(4, 1);
  grid.place(BlockId{1}, {0, 0});
  grid.place(BlockId{2}, {2, 0});
  // Both blocks try to land on cell (1,0).
  EXPECT_DEATH(
      grid.move_simultaneously({{{0, 0}, {1, 0}}, {{2, 0}, {1, 0}}}), "");
}

TEST(GridDeath, PlacingOnOccupiedCellAborts) {
  Grid grid(2, 2);
  grid.place(BlockId{1}, {0, 0});
  EXPECT_DEATH(grid.place(BlockId{2}, {0, 0}), "already holds");
}

TEST(GridDeath, DuplicateIdAborts) {
  Grid grid(2, 2);
  grid.place(BlockId{1}, {0, 0});
  EXPECT_DEATH(grid.place(BlockId{1}, {1, 1}), "already on the surface");
}

TEST(Grid, NeighborsOf) {
  Grid grid(3, 3);
  const WorldView view(grid);
  grid.place(BlockId{1}, {1, 1});
  grid.place(BlockId{2}, {1, 2});  // north
  grid.place(BlockId{3}, {2, 1});  // east
  const auto neighbors = view.neighbors_of({1, 1});
  EXPECT_EQ(neighbors[static_cast<size_t>(Direction::kNorth)], BlockId{2});
  EXPECT_EQ(neighbors[static_cast<size_t>(Direction::kEast)], BlockId{3});
  EXPECT_EQ(neighbors[static_cast<size_t>(Direction::kSouth)],
            kInvalidBlock);
  EXPECT_EQ(neighbors[static_cast<size_t>(Direction::kWest)], kInvalidBlock);
  EXPECT_EQ(view.occupied_neighbor_count({1, 1}), 2);
}

TEST(Grid, BlockIdsSorted) {
  Grid grid(3, 3);
  const WorldView view(grid);
  grid.place(BlockId{5}, {0, 0});
  grid.place(BlockId{1}, {1, 0});
  grid.place(BlockId{3}, {2, 0});
  const auto ids = view.block_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], BlockId{1});
  EXPECT_EQ(ids[1], BlockId{3});
  EXPECT_EQ(ids[2], BlockId{5});
}

TEST(Grid, EqualityComparesOccupancy) {
  Grid a(3, 3);
  Grid b(3, 3);
  EXPECT_EQ(a, b);
  a.place(BlockId{1}, {1, 1});
  EXPECT_FALSE(a == b);
  b.place(BlockId{1}, {1, 1});
  EXPECT_EQ(a, b);
}

TEST(BlockId, Validity) {
  EXPECT_FALSE(kInvalidBlock.valid());
  EXPECT_TRUE(BlockId{0}.valid());
  EXPECT_LT(BlockId{1}, BlockId{2});
}

}  // namespace
}  // namespace sb::lat
