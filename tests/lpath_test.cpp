// Tests for the canonical-monotone path extension: diagonal I/O tasks
// (DESIGN.md finding 8; the paper's aligned-only metric cannot build
// these).

#include <gtest/gtest.h>

#include "core/reconfig.hpp"
#include "lattice/region.hpp"
#include "lattice/scenario.hpp"

namespace sb::core {
namespace {

using lat::Vec2;

SessionConfig lpath_config() {
  SessionConfig config;
  config.path_shape = PathShape::kCanonicalMonotone;
  config.max_events = 100'000'000;
  return config;
}

// ---------------------------------------------------------------------------
// The generalized path-cell predicate
// ---------------------------------------------------------------------------

TEST(CanonicalPathShape, FreezesTheLNotTheAlignment) {
  DistanceParams params;
  params.input = {1, 1};
  params.output = {5, 6};
  params.path_shape = PathShape::kCanonicalMonotone;
  // First leg: I's row between I and the corner.
  EXPECT_TRUE(is_path_cell({3, 1}, params));
  EXPECT_TRUE(is_path_cell({5, 1}, params));  // the corner
  // Second leg: O's column between the corner and O.
  EXPECT_TRUE(is_path_cell({5, 4}, params));
  // O's *row* is not on the canonical path (except O itself).
  EXPECT_FALSE(is_path_cell({3, 6}, params));
  // Interior staircase cells are not frozen.
  EXPECT_FALSE(is_path_cell({3, 3}, params));
  // Outside the rectangle: never.
  EXPECT_FALSE(is_path_cell({0, 1}, params));
}

TEST(CanonicalPathShape, BaseDistanceFreezesLegCells) {
  DistanceParams params;
  params.input = {1, 1};
  params.output = {5, 6};
  params.path_shape = PathShape::kCanonicalMonotone;
  EXPECT_EQ(base_distance({3, 1}, params), kInfiniteDistance);
  EXPECT_EQ(base_distance({5, 3}, params), kInfiniteDistance);
  EXPECT_EQ(base_distance({3, 3}, params), 2 + 3);  // staircase interior
  // One hop from O keeps the exception.
  EXPECT_EQ(base_distance({5, 5}, params), 1);
}

// ---------------------------------------------------------------------------
// Scenario generator
// ---------------------------------------------------------------------------

TEST(LPathScenario, GeneratorProducesValidDiagonalTask) {
  const lat::Scenario s = lat::make_lpath_scenario(5, 7, 4);
  EXPECT_TRUE(lat::validate(s).empty());
  EXPECT_EQ(s.input, Vec2(1, 1));
  EXPECT_EQ(s.output, Vec2(5, 7));
  EXPECT_NE(s.input.x, s.output.x);
  EXPECT_NE(s.input.y, s.output.y);  // genuinely diagonal
}

TEST(LPathScenario, RejectsUnderseededColumn) {
  EXPECT_DEATH((void)lat::make_lpath_scenario(5, 9, 3), "seed");
}

// ---------------------------------------------------------------------------
// End-to-end
// ---------------------------------------------------------------------------

class LPathSweep
    : public ::testing::TestWithParam<std::tuple<int32_t, int32_t, int32_t>> {
};

TEST_P(LPathSweep, DiagonalTaskCompletes) {
  const auto leg_x = std::get<0>(GetParam());
  const auto leg_y = std::get<1>(GetParam());
  const auto seed = std::get<2>(GetParam());
  const lat::Scenario scenario = lat::make_lpath_scenario(leg_x, leg_y, seed);
  ReconfigurationSession session(scenario, lpath_config());
  const SessionResult result = session.run();
  ASSERT_TRUE(result.complete)
      << "lpath " << leg_x << "x" << leg_y << " seed " << seed
      << (result.blocked ? " blocked" : "");
  EXPECT_FALSE(result.premature_completion);
  ASSERT_TRUE(result.path.has_value());
  // The built path is a real monotone shortest path ending at O.
  EXPECT_EQ(static_cast<int32_t>(result.path->size()), result.path_cells);
  EXPECT_EQ(result.path->back(), scenario.output);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LPathSweep,
    ::testing::Values(std::make_tuple(3, 5, 3), std::make_tuple(5, 7, 4),
                      std::make_tuple(8, 7, 4), std::make_tuple(4, 9, 5),
                      std::make_tuple(6, 11, 6)));

TEST(LPath, AlignedMetricAlsoHandlesPreSeededL) {
  // Nuance worth pinning down: with the first leg fully pre-seeded, even
  // the paper's aligned-only metric completes this diagonal task - the
  // leg-1 blocks have no valid improving move, so they never wander and
  // the seeded leg survives. The canonical-monotone extension is what
  // *guarantees* they stay (frozen), which matters once leg-1 blocks gain
  // mobility (e.g. under richer rule sets).
  const lat::Scenario scenario = lat::make_lpath_scenario(5, 7, 4);
  SessionConfig config;
  config.path_shape = PathShape::kAlignedWithOutput;
  config.max_iterations = 2000;
  const SessionResult result =
      ReconfigurationSession::run_scenario(scenario, config);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
  EXPECT_TRUE(result.complete || result.blocked);
}

TEST(LPath, CanonicalFreezingPinsLegOne) {
  // Under the extension the leg-1 blocks are frozen outright: no hop may
  // vacate them, whatever the rule set offers.
  const lat::Scenario scenario = lat::make_lpath_scenario(5, 7, 4);
  ReconfigurationSession session(scenario, lpath_config());
  const lat::WorldView view = session.simulator().world().view();
  bool leg_always_full = true;
  session.set_move_listener(
      [&](Epoch, lat::BlockId, const motion::RuleApplication&) {
        for (int32_t x = 1; x <= 5; ++x) {
          leg_always_full &= view.occupied({x, 1});
        }
      });
  ASSERT_TRUE(session.run().complete);
  EXPECT_TRUE(leg_always_full);
}

TEST(LPath, DeterministicAcrossRuns) {
  const lat::Scenario scenario = lat::make_lpath_scenario(5, 7, 4);
  const SessionResult a =
      ReconfigurationSession::run_scenario(scenario, lpath_config());
  const SessionResult b =
      ReconfigurationSession::run_scenario(scenario, lpath_config());
  EXPECT_EQ(a.elementary_moves, b.elementary_moves);
  EXPECT_EQ(a.sim_ticks, b.sim_ticks);
}

TEST(LPath, WorksWithTrains) {
  SessionConfig config = lpath_config();
  config.rules = motion::RuleLibrary::standard_with_trains(4);
  const SessionResult result = ReconfigurationSession::run_scenario(
      lat::make_lpath_scenario(5, 9, 5), config);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.premature_completion);
}

}  // namespace
}  // namespace sb::core
