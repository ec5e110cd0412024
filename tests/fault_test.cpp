// Tests for the fault-tolerance extension (paper §VI future work: "we plan
// also to deal with fault detection, e.g., block failures").

#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"

namespace sb::core {
namespace {

using lat::BlockId;
using lat::Vec2;

SessionConfig fault_config() {
  SessionConfig config;
  config.ack_timeout = 500;  // latency is fixed(1); generous margin
  config.max_events = 100'000'000;
  return config;
}

BlockId block_at(const lat::Scenario& scenario, Vec2 pos) {
  for (const auto& [id, p] : scenario.blocks) {
    if (p == pos) return id;
  }
  return lat::kInvalidBlock;
}

/// fig10 with one extra feeder block: the lane holds 7 blocks for 5 path
/// entries, so the system tolerates losing one lane block outright.
lat::Scenario slack_scenario() {
  lat::Scenario s = lat::make_fig10_scenario();
  s.name = "fig10-slack";
  s.blocks.emplace_back(BlockId{13}, Vec2{2, 6});
  SB_ASSERT(lat::validate(s).empty());
  return s;
}

TEST(Fault, RedundantLaneBlockFailureSurvived) {
  // Kill the lane's bottom block early. The remaining six feeders still
  // cover five path entries plus the final-carry helper, and the dead
  // block stays attached beside the Root, so the alive subgraph remains
  // connected. With ack timeouts the elections route around the silent
  // block and the path completes.
  const lat::Scenario scenario = slack_scenario();
  ReconfigurationSession session(scenario, fault_config());
  session.step_events(300);
  session.simulator().kill_module(block_at(scenario, {2, 0}));
  const SessionResult result = session.run();
  EXPECT_TRUE(result.complete)
      << "blocked=" << result.blocked
      << " stop=" << to_string(result.stop_reason);
}

TEST(Fault, CutVertexFailureReportsBlocked) {
  // A dead path-seed block eventually becomes a cut vertex of the alive
  // graph (once its lane neighbour climbs away), splitting the Root from
  // the upper half. The algorithm cannot finish - but it must *diagnose*
  // this (blocked) rather than hang.
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, fault_config());
  session.step_events(500);
  session.simulator().kill_module(block_at(scenario, {1, 2}));
  const SessionResult result = session.run();
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.blocked);
  EXPECT_EQ(result.stop_reason, sim::StopReason::kHalted);
}

TEST(Fault, WithoutTimeoutsAFailureDeadlocks) {
  // The control experiment: the same failure with ack_timeout = 0 starves
  // the election (the dead block's father waits forever) and the event
  // queue simply drains.
  const lat::Scenario scenario = lat::make_fig10_scenario();
  SessionConfig config;
  config.ack_timeout = 0;
  ReconfigurationSession session(scenario, config);
  session.step_events(500);
  session.simulator().kill_module(block_at(scenario, {1, 2}));
  const SessionResult result = session.run();
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.stop_reason, sim::StopReason::kQueueEmpty);
}

TEST(Fault, DeadLaneBlockTerminatesCleanly) {
  // Killing a feeder-lane block may make completion impossible (the tower
  // has exactly one spare); the run must still end in a clean terminal
  // state - complete or blocked - rather than hanging.
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, fault_config());
  session.step_events(300);
  session.simulator().kill_module(block_at(scenario, {2, 0}));
  const SessionResult result = session.run();
  EXPECT_TRUE(result.complete || result.blocked)
      << to_string(result.stop_reason);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
}

TEST(Fault, KillingLaneTopMidElectionRecovers) {
  // The lane-top block is the likeliest elected block early on; killing it
  // shortly after the start exercises the Root's Select/MoveDone timeout
  // and the election-restart path.
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, fault_config());
  session.step_events(40);  // mid-first-election
  session.simulator().kill_module(block_at(scenario, {2, 5}));
  const SessionResult result = session.run();
  EXPECT_TRUE(result.complete || result.blocked);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
}

TEST(Fault, HealthyRunWithTimeoutsMatchesPlainRun) {
  // Arming timeouts must not change a failure-free execution's outcome.
  const lat::Scenario scenario = lat::make_fig10_scenario();
  const SessionResult plain =
      ReconfigurationSession::run_scenario(scenario, SessionConfig{});
  const SessionResult armed =
      ReconfigurationSession::run_scenario(scenario, fault_config());
  ASSERT_TRUE(plain.complete);
  ASSERT_TRUE(armed.complete);
  EXPECT_EQ(armed.elementary_moves, plain.elementary_moves);
  EXPECT_EQ(armed.iterations, plain.iterations);
  EXPECT_EQ(armed.election_restarts, 0u);
}

TEST(Fault, RestartCounterVisibleInResult) {
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, fault_config());
  session.step_events(40);
  session.simulator().kill_module(block_at(scenario, {2, 5}));
  const SessionResult result = session.run();
  // Whatever the terminal state, the counters must be consistent.
  EXPECT_EQ(result.election_restarts, session.metrics().election_restarts);
  EXPECT_GE(result.iterations, 1u);
}

/// First free in-bounds cell (row-major) attachable to the structure and
/// distinct from the output — where a hot-joining block can land right now.
Vec2 join_site(ReconfigurationSession& session) {
  const lat::WorldView view = session.simulator().world().view();
  for (int32_t y = 0; y < view.height(); ++y) {
    for (int32_t x = 0; x < view.width(); ++x) {
      const Vec2 pos{x, y};
      if (view.occupied(pos) || pos == session.scenario().output) continue;
      if (view.occupied_neighbor_count(pos) == 0) continue;
      if (session.simulator().cell_in_motion(pos)) continue;
      return pos;
    }
  }
  return {-1, -1};
}

TEST(Fault, HotJoinDuringReconfigurationIsAdopted) {
  // A block that docks onto the surface mid-run must be started, counted,
  // and folded into the ongoing reconfiguration; the extra spare must not
  // break completion.
  const lat::Scenario scenario = lat::make_fig10_scenario();
  ReconfigurationSession session(scenario, SessionConfig{});
  check::InvariantOracle oracle;
  oracle.attach(session);
  session.step_events(200);
  const size_t before = session.simulator().module_count();
  const Vec2 site = join_site(session);
  ASSERT_NE(site.x, -1);
  session.hot_join(BlockId{99}, site);
  oracle.expect_join();
  EXPECT_EQ(session.simulator().module_count(), before + 1);
  const SessionResult result = session.run();
  EXPECT_TRUE(result.complete || result.blocked)
      << to_string(result.stop_reason);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
  EXPECT_TRUE(oracle.clean()) << oracle.violations().front();
}

TEST(Fault, DeathAndHotJoinChurnTogether) {
  // The full churn gauntlet in one run: a lane block dies mid-election,
  // then a replacement hot-joins while the timeout machinery is still
  // routing around the corpse. The run must reach a clean terminal state
  // with every invariant intact (the dead block stays on the surface, so
  // conservation holds without adjustment; the join adds one).
  const lat::Scenario scenario = slack_scenario();
  ReconfigurationSession session(scenario, fault_config());
  check::InvariantOracle oracle;
  oracle.attach(session);
  session.step_events(300);
  session.simulator().kill_module(block_at(scenario, {2, 0}));
  session.step_events(200);
  const Vec2 site = join_site(session);
  ASSERT_NE(site.x, -1);
  session.hot_join(BlockId{99}, site);
  oracle.expect_join();
  const SessionResult result = session.run();
  EXPECT_TRUE(result.complete || result.blocked)
      << to_string(result.stop_reason);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
  EXPECT_TRUE(oracle.clean()) << oracle.violations().front();
  EXPECT_GT(oracle.checks_run(), 0u);
}

TEST(Fault, StepEventsIsIdempotentOnStart) {
  ReconfigurationSession session(lat::make_fig10_scenario(),
                                 SessionConfig{});
  session.step_events(10);
  session.step_events(10);  // must not re-start modules
  const SessionResult result = session.run();
  EXPECT_TRUE(result.complete);
}

}  // namespace
}  // namespace sb::core
