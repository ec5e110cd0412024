// Protocol-level tests of the distributed election: message counts that
// must follow exactly from the contact-graph structure, argmin
// correctness, and per-epoch activation coverage.

#include <gtest/gtest.h>

#include "core/motion_planner.hpp"
#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"

namespace sb::core {
namespace {

using lat::BlockId;
using lat::Vec2;

/// Number of lateral contacts (edges) in the scenario's initial layout.
size_t contact_edges(const lat::Scenario& scenario) {
  const lat::Grid grid = scenario.to_grid();
  const lat::WorldView view(grid);
  size_t twice_edges = 0;
  for (const auto& [id, pos] : view.blocks()) {
    twice_edges += static_cast<size_t>(view.occupied_neighbor_count(pos));
  }
  return twice_edges / 2;
}

/// Runs the session one event at a time until the predicate holds.
template <typename Pred>
void step_until(ReconfigurationSession& session, Pred&& done) {
  for (int guard = 0; guard < 1'000'000; ++guard) {
    if (done()) return;
    if (session.step_events(1) == sim::StopReason::kQueueEmpty) break;
    if (session.simulator().halted()) break;
  }
  ASSERT_TRUE(done()) << "predicate never satisfied";
}

class ActivateFormulaTest : public ::testing::TestWithParam<int> {};

TEST_P(ActivateFormulaTest, FirstElectionSendsExactly2EMinusNPlus1) {
  // Dijkstra-Scholten accounting on a static graph: the Root sends
  // deg(root) Activates; every other block sends deg(v) - 1 on engagement.
  // Total = sum(deg) - (N-1) = 2E - N + 1, each answered by exactly one
  // Ack before the Root concludes.
  lat::Scenario scenario;
  switch (GetParam()) {
    case 0: scenario = lat::make_fig10_scenario(); break;
    case 1: scenario = lat::make_tower_scenario(3); break;
    default: scenario = lat::make_lpath_scenario(4, 5, 3); break;
  }
  const size_t n = scenario.block_count();
  const size_t e = contact_edges(scenario);
  const auto expected = static_cast<uint64_t>(2 * e - n + 1);

  SessionConfig config;
  if (GetParam() == 2) config.path_shape = PathShape::kCanonicalMonotone;
  ReconfigurationSession session(scenario, config);
  step_until(session, [&] {
    return session.metrics().elections_completed >= 1;
  });
  const auto& stats = session.simulator().stats();
  EXPECT_EQ(stats.messages_by_tag[ActivateMsg::kTag], expected);
  EXPECT_EQ(stats.messages_by_tag[AckMsg::kTag], expected);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ActivateFormulaTest,
                         ::testing::Values(0, 1, 2),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case 0: return "fig10";
                             case 1: return "tower6";
                             default: return "lpath";
                           }
                         });

TEST(Election, FirstElectedIsGlobalArgmin) {
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, {});

  // Compute the expected winner externally with an identical planner.
  PlannerConfig planner_config;
  planner_config.distance.input = scenario.input;
  planner_config.distance.output = scenario.output;
  const MotionPlanner planner(&session.simulator().world().rules(),
                              planner_config);
  int32_t best = kInfiniteDistance;
  BlockId expected;
  for (const auto& [id, pos] : session.simulator().world().view().blocks()) {
    if (pos == scenario.input) continue;  // the Root
    const MoveDecision d = planner.evaluate(session.simulator().world(), pos,
                                            nullptr, 0, nullptr, nullptr);
    if (d.distance < best) {
      best = d.distance;
      expected = id;
    }
  }
  ASSERT_TRUE(expected.valid());

  BlockId first_mover;
  session.set_move_listener(
      [&](Epoch epoch, BlockId mover, const motion::RuleApplication&) {
        if (epoch == 1) first_mover = mover;
      });
  ASSERT_TRUE(session.run().complete);
  EXPECT_EQ(first_mover, expected);
}

TEST(Election, EveryEpochEvaluatesEveryNonRootBlock) {
  // Remark 2's unit of work: each election activates all N-1 non-root
  // blocks exactly once (connected static graph, no faults).
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, {});
  const auto result = session.run();
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.distance_computations,
            static_cast<uint64_t>(result.iterations) *
                (scenario.block_count() - 1));
}

TEST(Election, SelectRoutingBoundedByTreeDepth) {
  const auto result =
      ReconfigurationSession::run_scenario(lat::make_fig10_scenario(), {});
  ASSERT_TRUE(result.complete);
  // Each Select traverses at most N-1 tree edges; forwards exclude the
  // Root's initial send.
  EXPECT_LT(result.messages_by_kind.at("Select"),
            result.elections_completed * result.block_count);
  // One Select chain and one ElectedAck chain per election: equal counts.
  EXPECT_EQ(result.messages_by_kind.at("Select"),
            result.messages_by_kind.at("ElectedAck"));
}

TEST(Election, EpochTagsNeverRegress) {
  // The mover's epoch sequence equals 1..iterations with no gaps: exactly
  // one elected hop per Algorithm-1 iteration.
  ReconfigurationSession session(lat::make_fig10_scenario(), {});
  Epoch previous = 0;
  bool contiguous = true;
  session.set_move_listener(
      [&](Epoch epoch, BlockId, const motion::RuleApplication&) {
        contiguous &= epoch == previous + 1;
        previous = epoch;
      });
  const auto result = session.run();
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(contiguous);
  EXPECT_EQ(previous, result.iterations);
}

TEST(Election, NoSonNotifyWithoutFaultMode) {
  const auto result =
      ReconfigurationSession::run_scenario(lat::make_fig10_scenario(), {});
  EXPECT_EQ(result.messages_by_kind.count("SonNotify"), 0u);
}

TEST(Election, FaultModeNamesEveryKind) {
  // Only fault mode sends SonNotify, so this run sends every kind; each
  // must be named, and the named counts must cover every message sent.
  SessionConfig config;
  config.ack_timeout = 500;
  const auto result =
      ReconfigurationSession::run_scenario(lat::make_fig10_scenario(), config);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.messages_by_kind.count("SonNotify"), 1u);
  EXPECT_GT(result.messages_by_kind.at("SonNotify"), 0u);
  uint64_t by_kind = 0;
  for (const auto& [kind, count] : result.messages_by_kind) by_kind += count;
  EXPECT_EQ(by_kind, result.messages_sent);
}

TEST(Election, MessageTotalsAreConsistent) {
  const auto result =
      ReconfigurationSession::run_scenario(lat::make_fig10_scenario(), {});
  uint64_t by_kind = 0;
  for (const auto& [kind, count] : result.messages_by_kind) by_kind += count;
  EXPECT_EQ(by_kind, result.messages_sent);
  EXPECT_EQ(result.messages_sent,
            result.messages_delivered + result.messages_dropped);
}

}  // namespace
}  // namespace sb::core
