// Tests for the sharded world: ShardMap geometry (columns, rows, tiles,
// adaptive re-striping), the channel-driven sharded schedule
// (sim/simulator_sharded.cpp), cross-shard messaging, event re-homing on
// shard migration, and the determinism contract — event and move traces
// byte-identical across shard-thread counts (the sharded counterpart of
// runner_test's sweep determinism).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.hpp"
#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "lattice/shard.hpp"
#include "sim/shard.hpp"
#include "util/fmt.hpp"

namespace sb {
namespace {

// ---------------------------------------------------------------------------
// ShardMap geometry
// ---------------------------------------------------------------------------

TEST(ShardMap, SplitsWidthIntoStripes) {
  const lat::ShardMap map(8, 4);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.stripe_width(), 2);
  EXPECT_EQ(map.shard_of({0, 5}), 0u);
  EXPECT_EQ(map.shard_of({1, 0}), 0u);
  EXPECT_EQ(map.shard_of({2, 0}), 1u);
  EXPECT_EQ(map.shard_of({7, 3}), 3u);
  EXPECT_EQ(map.first_column(2), 4);
}

TEST(ShardMap, RoundsStripeWidthUp) {
  // 10 columns over 4 shards: stripes of 3 columns; the last holds one.
  const lat::ShardMap map(10, 4);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.stripe_width(), 3);
  EXPECT_EQ(map.shard_of({8, 0}), 2u);
  EXPECT_EQ(map.shard_of({9, 0}), 3u);
}

TEST(ShardMap, NeverCreatesEmptyTrailingStripes) {
  // Width 10 over 8 requested shards: ceil-rounded stripes of 2 columns
  // cover the surface with 5 stripes; the count must say 5, not 8.
  const lat::ShardMap map(10, 8);
  EXPECT_EQ(map.stripe_width(), 2);
  EXPECT_EQ(map.count(), 5u);
  EXPECT_EQ(map.shard_of({9, 0}), map.count() - 1);
  // Every shard owns at least one column.
  for (size_t shard = 0; shard < map.count(); ++shard) {
    EXPECT_LT(map.first_column(shard), 10);
  }
}

TEST(ShardMap, ClampsCountToWidth) {
  const lat::ShardMap map(3, 16);
  EXPECT_EQ(map.count(), 3u);
  EXPECT_EQ(map.stripe_width(), 1);
  EXPECT_EQ(map.shard_of({2, 0}), 2u);
}

TEST(ShardMap, SingleShardOwnsEverything) {
  const lat::ShardMap map(64, 1);
  EXPECT_EQ(map.count(), 1u);
  EXPECT_EQ(map.shard_of({0, 0}), 0u);
  EXPECT_EQ(map.shard_of({63, 9}), 0u);
}

TEST(ShardMap, RowStripesSplitHeight) {
  const lat::ShardMap map = lat::ShardMap::rows(8, 12, 4);
  EXPECT_EQ(map.kind(), lat::ShardMapKind::kRows);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.stripe_height(), 3);
  EXPECT_EQ(map.shard_of({0, 0}), 0u);
  EXPECT_EQ(map.shard_of({7, 2}), 0u);
  EXPECT_EQ(map.shard_of({3, 3}), 1u);
  EXPECT_EQ(map.shard_of({0, 11}), 3u);
}

TEST(ShardMap, TileMapCoversTheSurfaceInQuadrants) {
  const lat::ShardMap map = lat::ShardMap::tiles(16, 16, 4);
  EXPECT_EQ(map.kind(), lat::ShardMapKind::kTiles);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.shard_of({0, 0}), 0u);
  EXPECT_EQ(map.shard_of({15, 0}), 1u);
  EXPECT_EQ(map.shard_of({0, 15}), 2u);
  EXPECT_EQ(map.shard_of({15, 15}), 3u);
}

TEST(ShardMap, TileMapNeverCreatesEmptyTiles) {
  // A short surface clamps the tile rows: every shard index must own at
  // least one cell, and every cell must map into range.
  const lat::ShardMap map = lat::ShardMap::tiles(10, 3, 8);
  std::vector<int> owned(map.count(), 0);
  for (int32_t y = 0; y < 3; ++y) {
    for (int32_t x = 0; x < 10; ++x) {
      const size_t shard = map.shard_of({x, y});
      ASSERT_LT(shard, map.count());
      ++owned[shard];
    }
  }
  for (size_t shard = 0; shard < map.count(); ++shard) {
    EXPECT_GT(owned[shard], 0) << "tile " << shard << " owns no cells";
  }
}

TEST(ShardMap, AdaptiveColumnsSplitTheHotRegionFiner) {
  // All load in the first four columns: the boundaries crowd there and the
  // cold tail collapses into one wide stripe.
  std::vector<uint64_t> load(16, 0);
  for (size_t c = 0; c < 4; ++c) load[c] = 100;
  const lat::ShardMap map = lat::ShardMap::adaptive_columns(16, load, 4);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.stripe_width(), 0);  // explicit boundaries
  EXPECT_EQ(map.shard_of_column(0), 0u);
  EXPECT_EQ(map.shard_of_column(1), 1u);
  EXPECT_EQ(map.shard_of_column(2), 2u);
  EXPECT_EQ(map.shard_of_column(3), 3u);
  EXPECT_EQ(map.shard_of_column(15), 3u);
  EXPECT_NE(map.describe().find("adaptive"), std::string::npos);
}

TEST(ShardMap, AdaptiveWithZeroLoadFallsBackToUniform) {
  const std::vector<uint64_t> load(8, 0);
  const lat::ShardMap map = lat::ShardMap::adaptive_columns(8, load, 4);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.stripe_width(), 2);
}

TEST(ShardMap, RestripedSpreadsAPreviousRunsLoad) {
  // Shard 0 of a uniform 4-stripe map did 100x the work: the re-striped
  // map gives its columns three of the four stripes.
  const lat::ShardMap uniform(16, 4);
  const std::vector<uint64_t> shard_events = {1000, 10, 10, 10};
  const lat::ShardMap map = lat::ShardMap::restriped(uniform, shard_events, 4);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(map.first_column(0), 0);
  EXPECT_LE(map.first_column(3), 4);  // stripes 0-2 all inside old shard 0
  // Every column still maps to exactly one in-range shard, monotonically.
  size_t prev = 0;
  for (int32_t x = 0; x < 16; ++x) {
    const size_t shard = map.shard_of_column(x);
    ASSERT_LT(shard, map.count());
    ASSERT_GE(shard, prev);
    prev = shard;
  }
  EXPECT_EQ(prev, map.count() - 1);
}

// ---------------------------------------------------------------------------
// Sharded sessions: correctness and determinism
// ---------------------------------------------------------------------------

struct SessionRun {
  core::SessionResult result;
  std::vector<std::string> move_trace;
  std::vector<std::vector<std::string>> event_trace;
  /// Invariant-oracle verdict for the run (src/check/oracle.hpp): every
  /// e2e session below must finish with an empty list.
  std::vector<std::string> violations;
};

SessionRun run_session(const lat::Scenario& scenario,
                       core::SessionConfig config, size_t shards,
                       size_t shard_threads) {
  config.sim.shards = shards;
  config.sim.shard_threads = shard_threads;
  core::ReconfigurationSession session(scenario, config);
  SessionRun run;
  check::InvariantOracle oracle;
  oracle.attach(session, [&run](core::Epoch epoch, lat::BlockId block,
                                const motion::RuleApplication& app) {
    run.move_trace.push_back(fmt("{} {} {}", epoch, block, app.describe()));
  });
  session.simulator().enable_event_trace();
  run.result = session.run();
  run.event_trace = session.simulator().event_trace();
  oracle.check_now(session.simulator());
  run.violations = oracle.violations();
  return run;
}

/// gtest-friendly wrapper: prints the first violation on failure.
testing::AssertionResult oracle_clean(const SessionRun& run) {
  if (run.violations.empty()) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << run.violations.size() << " invariant violations, first: "
         << run.violations.front();
}

core::SessionConfig jittery_config() {
  core::SessionConfig config;
  config.sim.latency = msg::LatencyModel::uniform(1, 8);
  return config;
}

// The tentpole determinism property: for a fixed shard count, event and
// move traces are byte-identical whether windows drain on 1 thread or many.
TEST(ShardedDeterminism, TracesIdenticalAcrossThreadCountsTower16) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun serial = run_session(scenario, {}, 3, 1);
  const SessionRun parallel = run_session(scenario, {}, 3, 4);
  const SessionRun two = run_session(scenario, {}, 3, 2);

  ASSERT_TRUE(serial.result.complete);
  ASSERT_FALSE(serial.move_trace.empty());
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.event_trace, two.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
  EXPECT_EQ(serial.result.events_processed, parallel.result.events_processed);
  EXPECT_EQ(serial.result.sim_ticks, parallel.result.sim_ticks);
  EXPECT_EQ(serial.result.shard_events, parallel.result.shard_events);
}

TEST(ShardedDeterminism, TracesIdenticalAcrossThreadCountsFig10) {
  const lat::Scenario scenario = lat::make_fig10_scenario();
  const SessionRun serial = run_session(scenario, {}, 3, 1);
  const SessionRun parallel = run_session(scenario, {}, 3, 4);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
  EXPECT_EQ(serial.result.events_processed, parallel.result.events_processed);
}

// Randomized latency exercises the per-shard RNG streams: draws must land
// identically regardless of which OS thread executes a shard's window.
TEST(ShardedDeterminism, JitteryLatencyStableAcrossThreads) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun serial = run_session(scenario, jittery_config(), 3, 1);
  const SessionRun parallel = run_session(scenario, jittery_config(), 3, 4);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
}

// A link latency longer than the motion duration must not let a window
// straddle a motion landing: the lookahead is min(latency, motion
// duration), so motions requested inside a window always land beyond its
// horizon (regression: with lookahead = 20 > motion_duration = 10, shards
// kept draining past the landing tick against the pre-move grid).
TEST(ShardedDeterminism, SlowLinksStayBehindMotionLandings) {
  core::SessionConfig config;
  config.sim.latency = msg::LatencyModel::fixed(20);
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun classic = run_session(scenario, config, 1, 1);
  const SessionRun serial = run_session(scenario, config, 3, 1);
  const SessionRun parallel = run_session(scenario, config, 3, 4);

  ASSERT_TRUE(classic.result.complete);
  ASSERT_TRUE(serial.result.complete);
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.result.hops, classic.result.hops);
  EXPECT_EQ(serial.move_trace, classic.move_trace);
}

// shards = 1 must stay the classic engine: byte-identical to a default
// configuration, single trace stream.
TEST(ShardedDeterminism, SingleShardReducesToClassicSchedule) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun classic = run_session(scenario, {}, 1, 1);
  const SessionRun classic_threaded = run_session(scenario, {}, 1, 8);

  ASSERT_TRUE(classic.result.complete);
  EXPECT_EQ(classic.result.shards, 1u);
  EXPECT_TRUE(classic.result.shard_events.empty());
  ASSERT_EQ(classic.event_trace.size(), 1u);
  EXPECT_EQ(classic.event_trace, classic_threaded.event_trace);
}

// One-column-per-stripe sharding maximizes cross-shard traffic and makes
// every horizontal hop a migration — the re-homing path gets no mercy.
TEST(ShardedSession, MaximallyShardedTowerCompletes) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun classic = run_session(scenario, {}, 1, 1);
  const SessionRun sharded =
      run_session(scenario, {}, static_cast<size_t>(scenario.width), 2);

  ASSERT_TRUE(sharded.result.complete);
  EXPECT_TRUE(oracle_clean(sharded));
  EXPECT_GT(sharded.result.shards, 2u);
  // The distributed algorithm's outcome metrics are schedule-independent.
  EXPECT_EQ(sharded.result.hops, classic.result.hops);
  EXPECT_EQ(sharded.result.elementary_moves, classic.result.elementary_moves);
  EXPECT_EQ(sharded.result.path, classic.result.path);
}

// Fault-mode timers (ack_timeout) ride the shard queues; a sharded world
// with timers must still terminate and stay thread-count deterministic.
TEST(ShardedSession, FaultModeTimersStayDeterministic) {
  core::SessionConfig config;
  config.ack_timeout = 64;
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun serial = run_session(scenario, config, 3, 1);
  const SessionRun parallel = run_session(scenario, config, 3, 3);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
}

// Per-shard counters merge into the session totals: the by-kind map sums
// to the scalar, and per-shard event counts sum to the processed total
// minus the sequential (grid-mutating) steps.
TEST(ShardedSession, PerShardCountersMergeIntoTotals) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun run = run_session(scenario, {}, 3, 2);

  ASSERT_TRUE(run.result.complete);
  EXPECT_EQ(run.result.shards, 3u);
  ASSERT_EQ(run.result.shard_events.size(), 3u);

  uint64_t by_kind = 0;
  for (const auto& [kind, count] : run.result.messages_by_kind) {
    by_kind += count;
  }
  EXPECT_EQ(by_kind, run.result.messages_sent);

  const uint64_t shard_sum =
      std::accumulate(run.result.shard_events.begin(),
                      run.result.shard_events.end(), uint64_t{0});
  EXPECT_GT(shard_sum, 0u);
  EXPECT_LT(shard_sum, run.result.events_processed);
  // The sequential stream holds exactly the remaining (motion) events.
  const SessionRun retrace = run_session(scenario, {}, 3, 1);
  ASSERT_EQ(retrace.event_trace.size(), 4u);
  EXPECT_EQ(retrace.event_trace.back().size(),
            retrace.result.events_processed - shard_sum);
}

// Metrics that the paper reasons about must not depend on the engine: the
// sharded schedule may reorder same-tick events, but with fixed latency the
// tower election is tie-free and lands the same hop sequence.
TEST(ShardedSession, FixedLatencyMetricsMatchClassic) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun classic = run_session(scenario, {}, 1, 1);
  const SessionRun sharded = run_session(scenario, {}, 4, 2);

  ASSERT_TRUE(classic.result.complete);
  ASSERT_TRUE(sharded.result.complete);
  EXPECT_TRUE(oracle_clean(classic));
  EXPECT_TRUE(oracle_clean(sharded));
  EXPECT_EQ(sharded.move_trace, classic.move_trace);
  EXPECT_EQ(sharded.result.hops, classic.result.hops);
  EXPECT_EQ(sharded.result.distance_computations,
            classic.result.distance_computations);
  EXPECT_EQ(sharded.result.messages_sent, classic.result.messages_sent);
}

// Re-running the same sharded configuration reproduces byte-identically
// (fresh simulator, same seed).
TEST(ShardedDeterminism, RerunReproducesByteIdentically) {
  const lat::Scenario scenario = lat::make_fig10_scenario();
  const SessionRun first = run_session(scenario, jittery_config(), 2, 2);
  const SessionRun second = run_session(scenario, jittery_config(), 2, 2);
  EXPECT_EQ(first.event_trace, second.event_trace);
  EXPECT_EQ(first.move_trace, second.move_trace);
}

// ---------------------------------------------------------------------------
// Shard-map kinds drive whole sessions
// ---------------------------------------------------------------------------

// Row stripes and tiles are full peers of the column map: sessions finish,
// the oracle stays clean, outcome metrics match the classic engine, and the
// thread-count determinism contract holds per map.
TEST(ShardedSession, RowMapMatchesClassicOutcome) {
  core::SessionConfig config;
  config.sim.shard_map = lat::ShardMapKind::kRows;
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun classic = run_session(scenario, {}, 1, 1);
  const SessionRun serial = run_session(scenario, config, 3, 1);
  const SessionRun parallel = run_session(scenario, config, 3, 4);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
  EXPECT_EQ(serial.result.hops, classic.result.hops);
  EXPECT_EQ(serial.result.elementary_moves, classic.result.elementary_moves);
}

TEST(ShardedSession, TileMapMatchesClassicOutcome) {
  core::SessionConfig config;
  config.sim.shard_map = lat::ShardMapKind::kTiles;
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun classic = run_session(scenario, {}, 1, 1);
  const SessionRun serial = run_session(scenario, config, 4, 1);
  const SessionRun parallel = run_session(scenario, config, 4, 4);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
  EXPECT_EQ(serial.result.hops, classic.result.hops);
}

// Feeding a run's per-shard event counts back as load hints re-stripes the
// columns; the adapted map is still a deterministic, oracle-clean engine.
TEST(ShardedSession, AdaptiveHintsKeepDeterminism) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun pilot = run_session(scenario, {}, 3, 1);
  ASSERT_TRUE(pilot.result.complete);
  ASSERT_EQ(pilot.result.shard_events.size(), 3u);

  core::SessionConfig config;
  config.sim.shard_load_hints = pilot.result.shard_events;
  const lat::Scenario rerun = lat::make_tower_scenario(8);
  const SessionRun serial = run_session(rerun, config, 3, 1);
  const SessionRun parallel = run_session(rerun, config, 3, 4);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
  EXPECT_EQ(serial.result.hops, pilot.result.hops);
}

// ---------------------------------------------------------------------------
// WindowBarrier / ShardEngine
// ---------------------------------------------------------------------------

TEST(WindowBarrier, RunsTheSerialSectionOncePerRendezvous) {
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 200;
  sim::WindowBarrier barrier(kThreads);
  int serial_runs = 0;  // written only inside the serial section
  std::atomic<int> parallel_work{0};
  auto participant = [&] {
    for (int round = 0; round < kRounds; ++round) {
      parallel_work.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive([&] { ++serial_runs; });
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 1; t < kThreads; ++t) threads.emplace_back(participant);
  participant();
  for (auto& t : threads) t.join();
  EXPECT_EQ(serial_runs, kRounds);
  EXPECT_EQ(parallel_work.load(), kRounds * static_cast<int>(kThreads));
}

// Lost-wakeup stress: a releaser that publishes the phase and then wakes
// parked waiters, without ordering both against a waiter's test-then-park,
// can leave a waiter asleep forever with every other thread parked behind
// it. Half a million rendezvous at four threads (more threads than free
// cores under a parallel ctest, so waiters do park) must all complete. A
// hang fails through the watchdog, which aborts once no rendezvous has
// completed for 60 s, rather than stalling the suite.
TEST(WindowBarrier, HalfAMillionRendezvousLoseNoWakeup) {
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 500'000;
  sim::WindowBarrier barrier(kThreads);
  std::atomic<int> serial_runs{0};
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    int last = -1;
    auto last_progress = std::chrono::steady_clock::now();
    while (!finished.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const int now_runs = serial_runs.load(std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      if (now_runs != last) {
        last = now_runs;
        last_progress = now;
      } else if (now - last_progress > std::chrono::seconds(60)) {
        std::fprintf(stderr,
                     "WindowBarrier stalled after %d of %d rendezvous: "
                     "lost wakeup\n",
                     now_runs, kRounds);
        std::abort();
      }
    }
  });
  auto participant = [&] {
    for (int round = 0; round < kRounds; ++round) {
      barrier.arrive(
          [&] { serial_runs.fetch_add(1, std::memory_order_relaxed); });
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 1; t < kThreads; ++t) threads.emplace_back(participant);
  participant();
  for (auto& t : threads) t.join();
  finished.store(true, std::memory_order_release);
  watchdog.join();
  EXPECT_EQ(serial_runs.load(), kRounds);
}

TEST(ShardEngine, CyclesFoldIntegrateDecideDrainRounds) {
  constexpr size_t kShards = 6;
  sim::ShardEngine engine(3, kShards);
  EXPECT_EQ(engine.threads(), 3u);
  int folds = 0;
  int windows = 0;
  std::atomic<int> integrates{0};
  std::atomic<int> drains{0};
  sim::ShardEngine::Hooks hooks;
  hooks.fold = [&] { ++folds; };
  hooks.integrate = [&](size_t) { integrates.fetch_add(1); };
  hooks.decide = [&](sim::SimTime* window_end) {
    if (windows == 4) return false;
    *window_end = static_cast<sim::SimTime>(++windows);
    return true;
  };
  hooks.drain = [&](size_t, sim::SimTime) { drains.fetch_add(1); };
  engine.run(hooks);
  // 4 windows: each preceded by a fold+integrate round, plus the final
  // round that folds the last window and decides to stop.
  EXPECT_EQ(folds, 5);
  EXPECT_EQ(integrates.load(), 5 * static_cast<int>(kShards));
  EXPECT_EQ(drains.load(), 4 * static_cast<int>(kShards));
}

TEST(ShardEngine, SingleThreadRunsInline) {
  sim::ShardEngine engine(1, 3);
  EXPECT_EQ(engine.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_drain = true;
  int windows = 0;
  sim::ShardEngine::Hooks hooks;
  hooks.fold = [] {};
  hooks.integrate = [](size_t) {};
  hooks.decide = [&](sim::SimTime* window_end) {
    *window_end = 1;
    return windows++ < 1;
  };
  hooks.drain = [&](size_t, sim::SimTime) {
    inline_drain = inline_drain && std::this_thread::get_id() == caller;
  };
  engine.run(hooks);
  EXPECT_TRUE(inline_drain);
}

TEST(ShardEngine, ReusableAcrossRuns) {
  sim::ShardEngine engine(2, 4);
  std::atomic<int> drains{0};
  for (int round = 0; round < 25; ++round) {
    int windows = 0;
    sim::ShardEngine::Hooks hooks;
    hooks.fold = [] {};
    hooks.integrate = [](size_t) {};
    hooks.decide = [&](sim::SimTime* window_end) {
      *window_end = 1;
      return windows++ < 2;
    };
    hooks.drain = [&](size_t, sim::SimTime) { drains.fetch_add(1); };
    engine.run(hooks);
  }
  EXPECT_EQ(drains.load(), 25 * 2 * 4);
}

}  // namespace
}  // namespace sb
