// Tests for the train-rule extension (paper §IV: "an important family of
// block motions corresponds to the case where several adjacent blocks move
// simultaneously, e.g., adjacent blocks in the same row or in the same
// column").

#include <gtest/gtest.h>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/rule_library.hpp"

namespace sb::motion {
namespace {

using lat::BlockId;
using lat::Grid;
using lat::Vec2;
using lat::WorldView;

TEST(TrainRule, Train3HasExpectedMatrix) {
  const MotionRule train = RuleLibrary::make_train_rule(3);
  EXPECT_EQ(train.size(), 5);
  EXPECT_TRUE(train.semantic_issues().empty());
  // Motion row (center): tail 4, two handovers, destination 3.
  EXPECT_EQ(train.matrix().at(2, 0), EventCode::kBecomesEmpty);
  EXPECT_EQ(train.matrix().at(2, 1), EventCode::kHandover);
  EXPECT_EQ(train.matrix().at(2, 2), EventCode::kHandover);
  EXPECT_EQ(train.matrix().at(2, 3), EventCode::kBecomesOccupied);
  // North clearance over the moved span.
  for (int32_t col = 0; col <= 3; ++col) {
    EXPECT_EQ(train.matrix().at(1, col), EventCode::kRemainsEmpty);
  }
  // Support under the lead.
  EXPECT_EQ(train.matrix().at(3, 2), EventCode::kRemainsOccupied);
  EXPECT_EQ(train.moves().size(), 3u);
}

TEST(TrainRule, Train2EqualsCarry) {
  // A length-2 train is behaviourally the paper's Eq (4) carry, modulo the
  // matrix halo (the carry is 3x3; the generated 2-train is 3x3 too).
  const MotionRule train = RuleLibrary::make_train_rule(2);
  const RuleLibrary standard = RuleLibrary::standard();
  const MotionRule* carry = standard.find("carry_ES");
  ASSERT_NE(carry, nullptr);
  EXPECT_EQ(train.size(), carry->size());
  EXPECT_EQ(train.moves().size(), carry->moves().size());
  // The east-carrying matrix uses don't-care corners; the generated train
  // is stricter only where semantics force it. Compare applied behaviour:
  Grid grid(8, 8);
  grid.place(BlockId{1}, {2, 3});
  grid.place(BlockId{2}, {3, 3});
  grid.place(BlockId{3}, {3, 2});
  const WorldView view(grid);
  EXPECT_EQ(rule_applicable(train, view, {3, 3}),
            rule_applicable(*carry, view, {3, 3}));
}

TEST(TrainRule, Library8VariantsPerLength) {
  const RuleLibrary lib = RuleLibrary::standard_with_trains(4);
  // 8 x train4 + 8 x train3 + 8 slides + 8 carries.
  EXPECT_EQ(lib.size(), 32u);
  EXPECT_NE(lib.find("train3_ES"), nullptr);
  EXPECT_NE(lib.find("train4_NW"), nullptr);
  EXPECT_EQ(lib.max_rule_size(), 7);
  EXPECT_EQ(lib.sensing_radius(), 6);
}

TEST(TrainRule, AppliesOnColumnWithLateralSupport) {
  // Vertical 3-train: lane blocks (2,1),(2,2),(2,3) shift north along the
  // path column x=1; support beside the lead at (1,3), east side clear.
  Grid grid(8, 8);
  grid.place(BlockId{1}, {2, 1});
  grid.place(BlockId{2}, {2, 2});
  grid.place(BlockId{3}, {2, 3});
  for (int32_t y = 0; y <= 3; ++y) {
    grid.place(BlockId{static_cast<uint32_t>(10 + y)}, {1, y});
  }
  const RuleLibrary lib = RuleLibrary::standard_with_trains(4);
  const WorldView view(grid);
  const auto apps = enumerate_applications(lib, view, {2, 3});
  bool found_train3 = false;
  for (const auto& app : apps) {
    if (app.rule->name() == "train3_NW" && app.subject_to() == Vec2(2, 4)) {
      found_train3 = true;
      ASSERT_TRUE(physically_valid(grid, app));
      Grid copy = grid;
      apply_to_grid(copy, app);
      const WorldView after(copy);
      EXPECT_EQ(after.at({2, 4}), BlockId{3});
      EXPECT_EQ(after.at({2, 3}), BlockId{2});
      EXPECT_EQ(after.at({2, 2}), BlockId{1});
      EXPECT_FALSE(after.occupied({2, 1}));
    }
  }
  EXPECT_TRUE(found_train3);
}

TEST(TrainRule, BlockedByOppositeSideObstacle) {
  // Same setup plus an obstacle on the clearance side.
  Grid grid(8, 8);
  grid.place(BlockId{1}, {2, 1});
  grid.place(BlockId{2}, {2, 2});
  grid.place(BlockId{3}, {2, 3});
  grid.place(BlockId{4}, {3, 2});  // east-side obstacle
  for (int32_t y = 0; y <= 3; ++y) {
    grid.place(BlockId{static_cast<uint32_t>(10 + y)}, {1, y});
  }
  const RuleLibrary lib = RuleLibrary::standard_with_trains(4);
  const MotionRule* rule = lib.find("train3_NW");
  ASSERT_NE(rule, nullptr);
  const WorldView view(grid);
  // Anchor such that the lead (2,3) is the subject of move 0.
  const lat::Vec2 anchor =
      Vec2{2, 3} - world_offset(rule->size(), rule->moves()[0].from);
  EXPECT_FALSE(rule_applicable(*rule, view, anchor));
}

TEST(TrainRule, RejectsDegenerateLengths) {
  EXPECT_DEATH((void)RuleLibrary::make_train_rule(1), "at least two");
  EXPECT_DEATH((void)RuleLibrary::standard_with_trains(2), ">= 3");
}

}  // namespace
}  // namespace sb::motion

namespace sb::core {
namespace {

TEST(TrainReconfig, TowerCompletesWithFewerElections) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionResult plain =
      ReconfigurationSession::run_scenario(scenario, {});
  SessionConfig trains;
  trains.rules = motion::RuleLibrary::standard_with_trains(4);
  const SessionResult with_trains =
      ReconfigurationSession::run_scenario(scenario, trains);
  ASSERT_TRUE(plain.complete);
  ASSERT_TRUE(with_trains.complete);
  // A k-train advances k blocks per election; climbing epochs drop.
  EXPECT_LT(with_trains.hops, plain.hops);
  EXPECT_FALSE(with_trains.premature_completion);
}

TEST(TrainReconfig, Fig10CompletesWithTrains) {
  SessionConfig config;
  config.rules = motion::RuleLibrary::standard_with_trains(4);
  const SessionResult result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.premature_completion);
}

TEST(TrainReconfig, DeterministicWithTrains) {
  SessionConfig config;
  config.rules = motion::RuleLibrary::standard_with_trains(3);
  const auto a = ReconfigurationSession::run_scenario(
      lat::make_tower_scenario(6), config);
  const auto b = ReconfigurationSession::run_scenario(
      lat::make_tower_scenario(6), config);
  EXPECT_EQ(a.elementary_moves, b.elementary_moves);
  EXPECT_EQ(a.sim_ticks, b.sim_ticks);
}

}  // namespace
}  // namespace sb::core
