// Tests for the sharded world: the ShardMap's equal-load column cut, the
// windowed engine (sim/simulator_sharded.cpp) and its round loop
// (sim::run_rounds) at one shard and at several, cross-shard messaging,
// blocks keeping their registration shard as they move, and the
// determinism contract — event and move traces byte-identical across
// shard-thread counts (the sharded counterpart of runner_test's sweep
// determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.hpp"
#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "lattice/shard.hpp"
#include "sim/shard.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace sb {
namespace {

// ---------------------------------------------------------------------------
// ShardMap geometry
// ---------------------------------------------------------------------------

/// Owning shard of every column of a map over `width` columns.
std::vector<size_t> owners(const lat::ShardMap& map, int32_t width) {
  std::vector<size_t> out;
  for (int32_t x = 0; x < width; ++x) out.push_back(map.shard_of({x, 0}));
  return out;
}

TEST(ShardMap, EqualLoadsGiveEqualStripes) {
  const lat::ShardMap map(std::vector<uint64_t>(8, 5), 4);
  EXPECT_EQ(map.count(), 4u);
  EXPECT_EQ(owners(map, 8), (std::vector<size_t>{0, 0, 1, 1, 2, 2, 3, 3}));
  // A row never changes the owner: stripes span the surface's height.
  EXPECT_EQ(map.shard_of({3, 0}), map.shard_of({3, 1000}));
  // A surface with no blocks weighs every column equally.
  const lat::ShardMap empty(std::vector<uint64_t>(8, 0), 4);
  EXPECT_EQ(owners(empty, 8), owners(map, 8));
  // Ten columns over four shards: the stripes differ by at most a column.
  EXPECT_EQ(owners(lat::ShardMap(std::vector<uint64_t>(10, 1), 4), 10),
            (std::vector<size_t>{0, 0, 0, 1, 1, 2, 2, 2, 3, 3}));
}

TEST(ShardMap, HotRegionSplitsFiner) {
  // All load in the first four columns: the boundaries crowd there and the
  // cold tail collapses into one wide stripe.
  std::vector<uint64_t> load(16, 0);
  for (size_t c = 0; c < 4; ++c) load[c] = 100;
  const lat::ShardMap map(load, 4);
  EXPECT_EQ(map.count(), 4u);
  std::vector<size_t> expected(16, 3);
  for (size_t c = 0; c < 3; ++c) expected[c] = c;
  EXPECT_EQ(owners(map, 16), expected);
}

TEST(ShardMap, ClampsCountToWidth) {
  const lat::ShardMap map(std::vector<uint64_t>{7, 0, 1}, 16);
  EXPECT_EQ(map.count(), 3u);
  EXPECT_EQ(owners(map, 3), (std::vector<size_t>{0, 1, 2}));
  // Below the width nothing is dropped: ten columns give all eight shards.
  EXPECT_EQ(lat::ShardMap(std::vector<uint64_t>(10, 1), 8).count(), 8u);
  EXPECT_EQ(lat::ShardMap(std::vector<uint64_t>(4, 1), 0).count(), 1u);
}

TEST(ShardMap, SingleShardOwnsEverything) {
  const lat::ShardMap map(std::vector<uint64_t>(64, 3), 1);
  EXPECT_EQ(map.count(), 1u);
  EXPECT_EQ(owners(map, 64), std::vector<size_t>(64, 0));
}

TEST(ShardMap, EveryColumnMapsToAnInRangeShardInOrder) {
  // Lopsided, sparse and spiky loads at every count up to the width: the
  // owners step 0, 1, ..., count - 1 from west to east, so every shard owns
  // at least one column.
  Rng rng(17);
  for (int32_t width : {1, 2, 5, 16, 61}) {
    const auto columns = static_cast<size_t>(width);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint64_t> load(columns);
      for (uint64_t& l : load) {
        l = rng.next_below(4) == 0 ? 0 : rng.next_below(1000) + 1;
      }
      if (trial == 0) load.back() = 1'000'000;
      for (size_t requested = 1; requested <= columns + 1; ++requested) {
        const lat::ShardMap map(load, requested);
        ASSERT_EQ(map.count(), std::min(requested, columns));
        const std::vector<size_t> owner = owners(map, width);
        ASSERT_EQ(owner.front(), 0u);
        ASSERT_EQ(owner.back(), map.count() - 1);
        for (size_t x = 1; x < columns; ++x) {
          ASSERT_GE(owner[x], owner[x - 1]) << "at column " << x;
          ASSERT_LE(owner[x] - owner[x - 1], 1u) << "at column " << x;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded sessions: correctness and determinism
// ---------------------------------------------------------------------------

struct SessionRun {
  core::SessionResult result;
  std::vector<std::string> move_trace;
  std::vector<std::string> event_trace;
  /// Invariant-oracle verdict for the run (src/check/oracle.hpp): every
  /// e2e session below must finish with an empty list.
  std::vector<std::string> violations;
  /// Simulator::shard_of for every block, indexed by id.
  std::vector<size_t> home_shard;
  /// Block positions and the grid's connectivity verdict after the run.
  std::vector<std::pair<lat::BlockId, lat::Vec2>> final_blocks;
  lat::ConnectivityHint final_hint = lat::ConnectivityHint::kUnknown;
};

/// Runs `scenario` to completion; `prepare`, when given, sees the
/// simulator just before the run starts.
SessionRun run_session(
    const lat::Scenario& scenario, core::SessionConfig config, size_t shards,
    size_t shard_threads,
    const std::function<void(sim::Simulator&)>& prepare = nullptr) {
  config.sim.shards = shards;
  config.sim.shard_threads = shard_threads;
  core::ReconfigurationSession session(scenario, config);
  SessionRun run;
  check::InvariantOracle oracle;
  oracle.attach(session, [&run](core::Epoch epoch, lat::BlockId block,
                                const motion::RuleApplication& app) {
    run.move_trace.push_back(core::move_trace_line(epoch, block, app));
  });
  sim::Simulator& sim = session.simulator();
  sim.enable_event_trace();
  if (prepare) prepare(sim);
  run.result = session.run();
  run.event_trace = sim.event_trace();
  oracle.check_now(sim);
  run.violations = oracle.violations();
  const lat::WorldView view = sim.world().view();
  run.final_blocks = view.blocks();
  for (const auto& [id, pos] : run.final_blocks) {
    if (run.home_shard.size() <= id.value) run.home_shard.resize(id.value + 1);
    run.home_shard[id.value] = sim.shard_of(id);
  }
  run.final_hint = view.connectivity_hint();
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

/// Numeric field `key` ("s=", " t=", ...) of an event-trace line.
uint64_t trace_field(const std::string& line, const std::string& key) {
  const size_t at = line.find(key);
  EXPECT_NE(at, std::string::npos) << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size()));
}

/// Queue that ran a trace line: a shard index, or the shard count for the
/// sequential queue.
size_t trace_queue(const std::string& line) {
  EXPECT_EQ(line.rfind("s=", 0), 0u) << line;
  return static_cast<size_t>(trace_field(line, "s="));
}

/// Lines of `trace` that queue `queue` ran.
size_t lines_of_queue(const std::vector<std::string>& trace, size_t queue) {
  return static_cast<size_t>(
      std::count_if(trace.begin(), trace.end(), [queue](const auto& line) {
        return trace_queue(line) == queue;
      }));
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
  const SessionRun single = run_session(scenario, config, 1, 1);
  const SessionRun serial = run_session(scenario, config, 3, 1);
  const SessionRun parallel = run_session(scenario, config, 3, 4);

  ASSERT_TRUE(single.result.complete);
  ASSERT_TRUE(serial.result.complete);
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.result.hops, single.result.hops);
  EXPECT_EQ(serial.move_trace, single.move_trace);
}

// Windows never straddle a grid mutation, and at equal ticks mutations run
// first. The one-stream trace shows both: a sequential line at tick T has
// only shard lines with t < T before it and only shard lines with t >= T
// after it. Exponential latency with fault-mode timers puts deliveries and
// timers on landing ticks; one shard has no lookahead to keep its windows
// short, so its windows must end at the mutations themselves.
TEST(ShardedDeterminism, GridMutationsSplitTheTraceByTime) {
  const lat::Scenario scenario = lat::resolve_scenario("tower32");
  core::SessionConfig exponential;
  exponential.sim.latency = msg::LatencyModel::exponential(5.0);
  exponential.ack_timeout = 1000;
  for (const core::SessionConfig& config : {jittery_config(), exponential}) {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      const SessionRun run = run_session(scenario, config, shards, 1);
      ASSERT_TRUE(run.result.complete) << shards;
      const std::vector<std::string>& trace = run.event_trace;
      const size_t sequential = run.result.shards;
      // Forward: the latest shard tick so far, plus one (0: none yet).
      uint64_t latest = 0;
      size_t mutations = 0;
      for (const std::string& line : trace) {
        const uint64_t tick = trace_field(line, " t=");
        if (trace_queue(line) != sequential) {
          latest = std::max(latest, tick + 1);
          continue;
        }
        ++mutations;
        ASSERT_LE(latest, tick)
            << "shards=" << shards << ": a shard line at t >= " << tick
            << " runs before " << line;
      }
      // Backward: the earliest shard tick after each line.
      uint64_t earliest = UINT64_MAX;
      for (auto line = trace.rbegin(); line != trace.rend(); ++line) {
        const uint64_t tick = trace_field(*line, " t=");
        if (trace_queue(*line) != sequential) {
          earliest = std::min(earliest, tick);
          continue;
        }
        ASSERT_GE(earliest, tick)
            << "shards=" << shards << ": a shard line at t < " << tick
            << " runs after " << *line;
      }
      EXPECT_EQ(mutations, run.result.hops) << "shards=" << shards;
    }
  }
}

// shards = 1 runs the same engine on two queues: shard 0 (s=0) and the
// sequential one (s=1), which runs exactly the motion landings. Its one
// worker drains on the caller whatever shard_threads asks for, so the
// trace is the same at 1 and 8 threads; reports list no per-shard split.
TEST(ShardedDeterminism, SingleShardRunsTwoQueuesOnOneWorker) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun single = run_session(scenario, jittery_config(), 1, 1);
  const SessionRun threaded = run_session(scenario, jittery_config(), 1, 8);

  ASSERT_TRUE(single.result.complete);
  EXPECT_TRUE(oracle_clean(single));
  EXPECT_EQ(single.result.shards, 1u);
  EXPECT_TRUE(single.result.shard_events.empty());
  EXPECT_EQ(single.event_trace.size(), single.result.events_processed);
  EXPECT_EQ(lines_of_queue(single.event_trace, 1), single.result.hops);
  EXPECT_EQ(lines_of_queue(single.event_trace, 0) + single.result.hops,
            single.result.events_processed);
  EXPECT_EQ(single.event_trace, threaded.event_trace);
  EXPECT_EQ(single.move_trace, threaded.move_trace);

  core::SessionConfig config;
  config.sim.shard_threads = 8;
  core::ReconfigurationSession session(scenario, config);
  EXPECT_EQ(session.simulator().shard_count(), 1u);
  EXPECT_EQ(session.simulator().shard_thread_count(), 1u);
}

/// The schedule-dependent fields of a session result (everything but the
/// wall-clock ones).
std::string result_digest(const core::SessionResult& r) {
  std::string kinds;
  for (const auto& [kind, count] : r.messages_by_kind) {
    kinds += fmt(" {}={}", kind, count);
  }
  return fmt("stop={} complete={} blocked={} iterations={} hops={} "
             "moves={} dist={} sent={} delivered={} dropped={} ticks={} "
             "events={} shards={} shard_events={}{}",
             sim::to_string(r.stop_reason), r.complete, r.blocked,
             r.iterations, r.hops, r.elementary_moves,
             r.distance_computations, r.messages_sent, r.messages_delivered,
             r.messages_dropped, r.sim_ticks, r.events_processed, r.shards,
             r.shard_events.size(), kinds);
}

// One shard stops exactly on its event budget and right after the event
// that halts, so a session driven k events at a time runs the very
// schedule of one run(): every call processes exactly k events, except
// the one that halts, which ends on the halting event.
TEST(ShardedSession, SingleShardStepEventsRunsTheScheduleOfOneRun) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun whole = run_session(scenario, jittery_config(), 1, 1);
  ASSERT_TRUE(whole.result.complete);
  for (const uint64_t k : {1, 7, 100, 1000}) {
    core::ReconfigurationSession session(scenario, jittery_config());
    sim::Simulator& sim = session.simulator();
    sim.enable_event_trace();
    uint64_t processed = 0;
    sim::StopReason stop = sim::StopReason::kEventLimit;
    while (stop == sim::StopReason::kEventLimit) {
      stop = session.step_events(k);
      const uint64_t step = sim.stats().events_processed - processed;
      processed += step;
      if (stop == sim::StopReason::kEventLimit) {
        ASSERT_EQ(step, k);
      } else {
        ASSERT_GE(step, 1u) << "k=" << k;
        ASSERT_LE(step, k) << "k=" << k;
      }
    }
    const core::SessionResult result = session.run();
    EXPECT_EQ(stop, sim::StopReason::kHalted) << "k=" << k;
    EXPECT_EQ(sim.event_trace(), whole.event_trace) << "k=" << k;
    EXPECT_EQ(result_digest(result), result_digest(whole.result))
        << "k=" << k;
  }
}

// One-column-per-stripe sharding maximizes cross-shard traffic, and every
// horizontal hop carries a block out of the stripe it registered in while
// its shard keeps running its events.
TEST(ShardedSession, MaximallyShardedTowerCompletes) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun single = run_session(scenario, {}, 1, 1);
  const SessionRun sharded =
      run_session(scenario, {}, static_cast<size_t>(scenario.width), 2);

  ASSERT_TRUE(sharded.result.complete);
  EXPECT_TRUE(oracle_clean(sharded));
  EXPECT_GT(sharded.result.shards, 2u);
  // The distributed algorithm's outcome metrics are schedule-independent.
  EXPECT_EQ(sharded.result.hops, single.result.hops);
  EXPECT_EQ(sharded.result.elementary_moves, single.result.elementary_moves);
  EXPECT_EQ(sharded.result.path, single.result.path);
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

// Per-shard counters add up to the session totals: the by-kind map sums
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
  // Each shard's count is the lines its queue ran; the sequential queue
  // ran exactly the remaining (motion) events.
  for (size_t shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(lines_of_queue(run.event_trace, shard),
              run.result.shard_events[shard])
        << "shard " << shard;
  }
  EXPECT_EQ(lines_of_queue(run.event_trace, 3),
            run.result.events_processed - shard_sum);
}

// stats() sums the shards' counters in place, so a read between run()
// calls sees what the shard windows counted so far.
TEST(ShardedSession, StatsReadBetweenRunsIncludeTheShards) {
  core::SessionConfig config = jittery_config();
  config.sim.shards = 4;
  core::ReconfigurationSession session(lat::resolve_scenario("tower16"),
                                       config);
  sim::Simulator& sim = session.simulator();
  sim.enable_event_trace();
  ASSERT_EQ(session.step_events(500), sim::StopReason::kEventLimit);
  const sim::SimStats stats = sim.stats();
  const std::vector<std::string>& trace = sim.event_trace();
  // Events: each shard's count plus the sequential steps, a line each.
  const std::vector<uint64_t> shard_events = sim.shard_event_counts();
  ASSERT_EQ(shard_events.size(), 4u);
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(shard_events[shard], lines_of_queue(trace, shard));
  }
  EXPECT_EQ(stats.events_processed, trace.size());
  // Messages: every delivery so far ran on a shard, and was counted there
  // as delivered or dropped.
  const auto deliveries = static_cast<uint64_t>(
      std::count_if(trace.begin(), trace.end(), [](const std::string& line) {
        return line.find(" Delivery ") != std::string::npos;
      }));
  EXPECT_GT(deliveries, 0u);
  EXPECT_GE(stats.messages_sent(), deliveries);
  EXPECT_GT(stats.messages_delivered, 0u);
  EXPECT_LE(stats.messages_delivered, deliveries);
  EXPECT_GE(stats.messages_delivered + stats.messages_dropped, deliveries);
}

// Metrics that the paper reasons about must not depend on the shard count:
// more shards may reorder same-tick events, but with fixed latency the
// tower election is tie-free and lands the same hop sequence.
TEST(ShardedSession, FixedLatencyMetricsMatchOneShard) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun single = run_session(scenario, {}, 1, 1);
  const SessionRun sharded = run_session(scenario, {}, 4, 2);

  ASSERT_TRUE(single.result.complete);
  ASSERT_TRUE(sharded.result.complete);
  EXPECT_TRUE(oracle_clean(single));
  EXPECT_TRUE(oracle_clean(sharded));
  EXPECT_EQ(sharded.move_trace, single.move_trace);
  EXPECT_EQ(sharded.result.hops, single.result.hops);
  EXPECT_EQ(sharded.result.distance_computations,
            single.result.distance_computations);
  EXPECT_EQ(sharded.result.messages_sent, single.result.messages_sent);
}

// Lemma 1's extremal tower of N blocks takes exactly N^2/4 - 2 hops. The
// sharded engine, on its equal-block stripes and under jittery latency,
// must land that count too.
TEST(ShardedSession, TowerTakesLemma1sExactHopCount) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const SessionRun run = run_session(scenario, jittery_config(), 4, 2);

  ASSERT_TRUE(run.result.complete);
  EXPECT_TRUE(oracle_clean(run));
  EXPECT_EQ(run.result.shards, 4u);
  const uint64_t n = run.result.block_count;
  EXPECT_EQ(run.result.hops, n * n / 4 - 2);
}

// The simulator cuts its stripes from the grid's per-column block counts:
// on a blob that fills only part of its surface, each of the four shards
// starts with a quarter of the blocks, give or take less than one column
// at each cut.
TEST(ShardedSession, StripesHoldEqualBlockCounts) {
  core::SessionConfig config;
  config.sim.shards = 4;
  core::ReconfigurationSession session(lat::resolve_scenario("blob1000"),
                                       config);
  const sim::Simulator& sim = session.simulator();
  ASSERT_EQ(sim.shard_count(), 4u);
  const lat::WorldView view = sim.world().view();
  size_t widest_column = 0;
  for (int32_t x = 0; x < view.width(); ++x) {
    widest_column = std::max(widest_column, view.blocks_in_column(x));
  }
  std::vector<size_t> blocks(4, 0);
  for (const lat::BlockId id : view.block_ids()) ++blocks[sim.shard_of(id)];
  const double share = static_cast<double>(view.block_count()) / 4.0;
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_LT(std::abs(static_cast<double>(blocks[shard]) - share),
              static_cast<double>(widest_column))
        << "shard " << shard << " holds " << blocks[shard] << " blocks";
  }
}

/// Block an event-trace line is addressed to: the `a=` subject of a start
/// or timer, the `b=` receiver of a delivery; none for sequential steps.
std::optional<uint32_t> trace_target(const std::string& line) {
  const auto field = [&line](const std::string& key) {
    const size_t at = line.find(key);
    EXPECT_NE(at, std::string::npos) << line;
    return static_cast<uint32_t>(std::stoul(line.substr(at + key.size())));
  };
  if (line.find(" Start ") != std::string::npos ||
      line.find(" Timer ") != std::string::npos) {
    return field(" a=");
  }
  if (line.find(" Delivery ") != std::string::npos) return field(" b=");
  return std::nullopt;
}

// A stripe that holds no block has no event to drain, so it gets no worker
// of its own: tower16 stands in columns 1-2 of five, and the equal-block
// cut at four shards leaves stripes 2 and 3 empty. Workers still drain
// stripes by stride, so a block hot-joined into an empty stripe runs.
TEST(ShardedSession, WorkersOnlyForStripesThatHoldBlocks) {
  core::SessionConfig config = jittery_config();
  config.sim.shards = 4;
  config.sim.shard_threads = 4;
  core::ReconfigurationSession blob(lat::resolve_scenario("blob1000"),
                                    config);
  EXPECT_EQ(blob.simulator().shard_thread_count(), 4u);
  config.sim.shard_threads = 1;
  core::ReconfigurationSession single(lat::resolve_scenario("tower16"),
                                      config);
  EXPECT_EQ(single.simulator().shard_thread_count(), 1u);

  config.sim.shard_threads = 4;
  core::ReconfigurationSession tower(lat::resolve_scenario("tower16"),
                                     config);
  sim::Simulator& sim = tower.simulator();
  ASSERT_EQ(sim.shard_count(), 4u);
  EXPECT_EQ(sim.shard_thread_count(), 2u);

  check::InvariantOracle oracle;
  oracle.attach(tower);
  sim.enable_event_trace();
  tower.step_events(200);
  const lat::Vec2 site{3, 0};  // beside block 2 at (2, 0), in stripe 2
  ASSERT_FALSE(sim.world().view().occupied(site));
  ASSERT_FALSE(sim.cell_in_motion(site));
  tower.hot_join(lat::BlockId{99}, site);
  oracle.expect_join();
  ASSERT_EQ(sim.shard_of(lat::BlockId{99}), 2u);
  const core::SessionResult result = tower.run();
  EXPECT_TRUE(result.complete || result.blocked)
      << sim::to_string(result.stop_reason);
  EXPECT_TRUE(oracle.clean()) << oracle.violations().front();
  size_t joined_events = 0;
  for (const std::string& line : sim.event_trace()) {
    if (trace_target(line) == 99u) {
      EXPECT_EQ(trace_queue(line), 2u) << line;
      ++joined_events;
    }
  }
  EXPECT_GT(joined_events, 1u);  // its start, then deliveries to it
}

// A block keeps the shard its module registered on, however far it moves:
// every event addressed to it runs on that shard's queue. Fault-mode
// ack timers fire 1000 ticks out, so a block that hops across a stripe
// still has timers pending in its shard's queue.
TEST(ShardedSession, BlocksStayOnTheirRegistrationShard) {
  core::SessionConfig config;
  config.sim.latency = msg::LatencyModel::exponential(5.0);
  config.ack_timeout = 1000;
  const lat::Scenario scenario = lat::resolve_scenario("tower32");
  const SessionRun serial = run_session(scenario, config, 4, 1);
  const SessionRun parallel = run_session(scenario, config, 4, 4);

  ASSERT_TRUE(serial.result.complete);
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.home_shard, parallel.home_shard);

  // The cut the simulator made, rebuilt from the scenario's columns: each
  // block registered in the stripe it started in, and some ended the run
  // in another one.
  std::vector<uint64_t> columns(static_cast<size_t>(scenario.width), 0);
  for (const auto& [id, pos] : scenario.blocks) {
    ++columns[static_cast<size_t>(pos.x)];
  }
  const lat::ShardMap cut(columns, 4);
  for (const auto& [id, pos] : scenario.blocks) {
    EXPECT_EQ(serial.home_shard[id.value], cut.shard_of(pos)) << id;
  }
  size_t crossed = 0;
  for (const auto& [id, pos] : serial.final_blocks) {
    if (cut.shard_of(pos) != serial.home_shard[id.value]) ++crossed;
  }
  EXPECT_GT(crossed, 0u);

  // Queues 0-3 run the events of their shard's blocks; queue 4, the
  // sequential steps, runs none.
  size_t addressed = 0;
  for (const std::string& line : serial.event_trace) {
    const size_t queue = trace_queue(line);
    const std::optional<uint32_t> target = trace_target(line);
    if (!target) {
      EXPECT_EQ(queue, 4u) << line;
      continue;
    }
    ASSERT_LT(*target, serial.home_shard.size()) << line;
    ASSERT_EQ(queue, serial.home_shard[*target]) << line;
    ++addressed;
  }
  EXPECT_GT(addressed, serial.result.events_processed / 2);
}

// Windows only read the grid, so a connectivity verdict the grid does not
// know is settled before a window opens. Forgetting the verdict of a fresh
// session makes the very first window need that.
TEST(ShardedSession, UnknownVerdictIsSettledBeforeTheFirstWindow) {
  const lat::Scenario scenario = lat::make_tower_scenario(8);
  const auto forget_verdict = [](sim::Simulator& sim) {
    sim.world().grid().set_connectivity_hint(lat::ConnectivityHint::kUnknown);
  };
  const SessionRun serial =
      run_session(scenario, jittery_config(), 4, 1, forget_verdict);
  const SessionRun parallel =
      run_session(scenario, jittery_config(), 4, 4, forget_verdict);

  ASSERT_TRUE(serial.result.complete);
  ASSERT_TRUE(parallel.result.complete);
  EXPECT_TRUE(oracle_clean(serial));
  EXPECT_TRUE(oracle_clean(parallel));
  EXPECT_EQ(serial.event_trace, parallel.event_trace);
  EXPECT_EQ(serial.move_trace, parallel.move_trace);
  EXPECT_NE(serial.final_hint, lat::ConnectivityHint::kUnknown);
  EXPECT_NE(parallel.final_hint, lat::ConnectivityHint::kUnknown);
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
// WindowBarrier / run_rounds
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

// Threads of this process, from /proc/self/status.
int process_threads() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(status);
  return threads;
}

TEST(RunRounds, NWindowsTakeNPlusOneSerialSectionsAndNTimesSDrains) {
  constexpr size_t kShards = 6;
  constexpr int kWindows = 4;
  int serial_runs = 0;  // written only inside the serial section
  std::atomic<int> drains{0};
  std::atomic<int> wrong_horizon{0};
  const sim::PhaseBreakdown phases = sim::run_rounds(
      3, kShards,
      [&](sim::SimTime* window_end) {
        if (serial_runs++ == kWindows) return false;
        *window_end = static_cast<sim::SimTime>(serial_runs);
        return true;
      },
      [&](size_t, sim::SimTime window_end) {
        // Drains of window k run after serial section k, before k + 1.
        if (window_end != static_cast<sim::SimTime>(serial_runs)) {
          wrong_horizon.fetch_add(1);
        }
        drains.fetch_add(1);
      });
  EXPECT_EQ(serial_runs, kWindows + 1);
  EXPECT_EQ(drains.load(), kWindows * static_cast<int>(kShards));
  EXPECT_EQ(wrong_horizon.load(), 0);
  EXPECT_EQ(phases.windows, static_cast<uint64_t>(kWindows));
  // The serial split belongs to the serial callable, not the loop.
  EXPECT_EQ(phases.fold_ns + phases.integrate_ns + phases.decide_ns, 0u);
}

// One rendezvous per round: each serial section finds every drain of the
// rounds before it finished and none of the next one started, and every
// shard drains on the worker that owns it by stride, the caller owning
// shard 0.
TEST(RunRounds, EveryWorkerArrivesOncePerRound) {
  constexpr size_t kThreads = 3;
  constexpr size_t kShards = 7;
  constexpr int kWindows = 50;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> drains_seen;  // per serial section
  std::atomic<int> drains{0};
  // owner[round][shard], each entry written by one drain.
  std::vector<std::vector<std::thread::id>> owner(
      kWindows, std::vector<std::thread::id>(kShards));
  int round = -1;  // written only inside the serial section
  sim::run_rounds(
      kThreads, kShards,
      [&](sim::SimTime* window_end) {
        drains_seen.push_back(drains.load());
        *window_end = 1;
        return ++round < kWindows;
      },
      [&](size_t shard, sim::SimTime) {
        owner[static_cast<size_t>(round)][shard] = std::this_thread::get_id();
        drains.fetch_add(1);
      });
  ASSERT_EQ(drains_seen.size(), static_cast<size_t>(kWindows) + 1);
  for (size_t k = 0; k < drains_seen.size(); ++k) {
    EXPECT_EQ(drains_seen[k], static_cast<int>(k * kShards)) << "round " << k;
  }
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::thread::id worker = owner[0][shard % kThreads];
    for (int r = 0; r < kWindows; ++r) {
      EXPECT_EQ(owner[static_cast<size_t>(r)][shard], worker)
          << "shard " << shard << " round " << r;
    }
  }
  EXPECT_EQ(owner[0][0], caller);
  EXPECT_NE(owner[0][1], caller);
  EXPECT_NE(owner[0][2], caller);
  EXPECT_NE(owner[0][1], owner[0][2]);
}

TEST(RunRounds, OneThreadRunsInlineAndStartsNoThread) {
  const std::thread::id caller = std::this_thread::get_id();
  const int threads_before = process_threads();
  ASSERT_GT(threads_before, 0);
  bool inline_calls = true;
  int threads_seen = threads_before;
  int windows = 0;
  int drains = 0;
  sim::run_rounds(
      1, 3,
      [&](sim::SimTime* window_end) {
        inline_calls = inline_calls && std::this_thread::get_id() == caller;
        *window_end = 1;
        return windows++ < 2;
      },
      [&](size_t, sim::SimTime) {
        inline_calls = inline_calls && std::this_thread::get_id() == caller;
        threads_seen = std::max(threads_seen, process_threads());
        ++drains;
      });
  EXPECT_TRUE(inline_calls);
  EXPECT_EQ(threads_seen, threads_before);
  EXPECT_EQ(drains, 2 * 3);
}

TEST(RunRounds, BackToBackRuns) {
  std::atomic<int> drains{0};
  for (int run = 0; run < 25; ++run) {
    int windows = 0;
    const sim::PhaseBreakdown phases = sim::run_rounds(
        2, 4,
        [&](sim::SimTime* window_end) {
          *window_end = 1;
          return windows++ < 2;
        },
        [&](size_t, sim::SimTime) { drains.fetch_add(1); });
    EXPECT_EQ(phases.windows, 2u);
  }
  EXPECT_EQ(drains.load(), 25 * 2 * 4);
}

}  // namespace
}  // namespace sb
