// Tests for the parallel sweep harness (src/runner): deterministic seed
// forking, thread-count-independent results, byte-identical move traces,
// report aggregation, and the BENCH_sim.json schema.

#include <gtest/gtest.h>

#include <set>

#include "lattice/scenario.hpp"
#include "runner/report.hpp"
#include "runner/sweep.hpp"
#include "util/json.hpp"

namespace sb::runner {
namespace {

/// Randomized link latency so the RNG seed actually shapes the execution
/// (under the default fixed latency every seed produces the same schedule).
core::SessionConfig jittery_config() {
  core::SessionConfig config;
  config.sim.latency = msg::LatencyModel::uniform(1, 16);
  return config;
}

std::vector<RunSpec> tower_specs(size_t seed_count) {
  SweepGrid grid;
  grid.scenarios.push_back({"tower16", lat::make_tower_scenario(8)});
  grid.configs.push_back({"jitter", jittery_config()});
  grid.seed_count = seed_count;
  grid.master_seed = 0x5eedULL;
  return expand(grid);
}

SweepResult run_with_threads(const std::vector<RunSpec>& specs,
                             size_t threads) {
  SweepRunner::Options options;
  options.threads = threads;
  options.capture_traces = true;
  return SweepRunner(options).run(specs);
}

TEST(SeedForking, DependsOnlyOnMasterSeedAndIndex) {
  EXPECT_EQ(derive_run_seed(1, 0), derive_run_seed(1, 0));
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(1, 1));
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(2, 0));
}

TEST(Expand, CrossProductInDeterministicOrder) {
  SweepGrid grid;
  grid.scenarios.push_back({"a", lat::make_tower_scenario(8)});
  grid.scenarios.push_back({"b", lat::make_tower_scenario(8)});
  grid.configs.push_back({"c1", core::SessionConfig{}});
  grid.seeds = {7, 9};
  const auto specs = expand(grid);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].scenario_label, "a");
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_EQ(specs[1].seed, 9u);
  EXPECT_EQ(specs[2].scenario_label, "b");
}

// The tentpole determinism property: the same (scenario, seed) produces a
// byte-identical move trace whether the sweep runs on 1 thread or many.
TEST(SweepDeterminism, TracesIdenticalAcrossThreadCounts) {
  const auto specs = tower_specs(4);
  const SweepResult serial = run_with_threads(specs, 1);
  const SweepResult parallel = run_with_threads(specs, 4);

  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    ASSERT_FALSE(serial.runs[i].move_trace.empty());
    EXPECT_EQ(serial.runs[i].move_trace, parallel.runs[i].move_trace)
        << "trace diverged for run " << i;
    EXPECT_EQ(serial.runs[i].row.events, parallel.runs[i].row.events);
    EXPECT_EQ(serial.runs[i].row.sim_ticks, parallel.runs[i].row.sim_ticks);
    EXPECT_TRUE(serial.runs[i].row.complete);
  }
}

TEST(SweepDeterminism, RerunReproducesByteIdentically) {
  const auto specs = tower_specs(2);
  const SweepResult first = run_with_threads(specs, 2);
  const SweepResult second = run_with_threads(specs, 3);
  for (size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_EQ(first.runs[i].move_trace, second.runs[i].move_trace);
  }
}

TEST(SweepDeterminism, DistinctSeedsProduceDistinctExecutions) {
  const auto specs = tower_specs(4);
  const SweepResult result = run_with_threads(specs, 2);
  // Under randomized latency, different seeds must not collapse onto one
  // schedule: fingerprint each run by (sim_ticks, events, trace).
  std::set<std::tuple<uint64_t, uint64_t, std::vector<std::string>>> seen;
  for (const SweepRun& run : result.runs) {
    seen.insert({run.row.sim_ticks, run.row.events, run.move_trace});
  }
  EXPECT_GT(seen.size(), 1u) << "all seeds produced identical executions";
}

TEST(SweepRunner, AggregatesAllRunsIntoGroups) {
  SweepGrid grid;
  grid.scenarios.push_back({"tower16", lat::make_tower_scenario(8)});
  grid.seed_count = 3;
  const SweepResult result = SweepRunner().run_grid(grid);
  const auto groups = result.report.summarize();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].scenario, "tower16");
  EXPECT_EQ(groups[0].runs, 3u);
  EXPECT_EQ(groups[0].completed, 3u);
  // Fixed latency: all runs take the same number of hops (the algorithm is
  // deterministic), so the spread is zero.
  EXPECT_EQ(groups[0].hops.min(), groups[0].hops.max());
  EXPECT_GT(groups[0].events_per_sec.mean(), 0.0);
}

TEST(BenchReportJson, SchemaAndRoundTrip) {
  BenchReport report("runner_test");
  report.set_master_seed(0xabcdef0123456789ULL);
  report.set_threads(4);
  RunRow row;
  row.scenario = "tower16";
  row.ruleset = "standard";
  row.seed = 0xdeadbeefcafef00dULL;
  row.complete = true;
  row.events = 1000;
  row.events_per_sec = 123456.5;
  row.wall_seconds = 0.0081;
  row.hops = 62;
  row.elementary_moves = 69;
  row.messages_sent = 4242;
  report.add_row(row);

  const util::JsonValue parsed = util::parse_json(report.to_json_text());
  EXPECT_EQ(parsed.find("schema")->as_string(), "sb-bench-sim/v1");
  EXPECT_EQ(parsed.find("generator")->as_string(), "runner_test");
  EXPECT_EQ(util::parse_u64(parsed.find("master_seed")->as_string()),
            0xabcdef0123456789ULL);
  ASSERT_EQ(parsed.find("runs")->size(), 1u);
  const util::JsonValue& run = parsed.find("runs")->as_array()[0];
  EXPECT_EQ(util::parse_u64(run.find("seed")->as_string()),
            0xdeadbeefcafef00dULL);
  EXPECT_EQ(run.find("hops")->as_number(), 62.0);
  ASSERT_EQ(parsed.find("summary")->size(), 1u);
  const util::JsonValue& group = parsed.find("summary")->as_array()[0];
  EXPECT_EQ(group.find("scenario")->as_string(), "tower16");
  EXPECT_DOUBLE_EQ(
      group.find_path({"events_per_sec", "mean"})->as_number(), 123456.5);
}

/// Hand-built rows covering each way a run entry's shape varies: one shard
/// (phases and barrier wait left out), four shards with a per-shard split,
/// four shards without one, and counters above 2^53 (written as numbers).
BenchReport pinned_report() {
  BenchReport report("runner_test");
  report.set_master_seed(0x0123456789abcdefULL);
  report.set_threads(3);
  report.set_cores(8);

  RunRow one_shard;
  one_shard.scenario = "tower16";
  one_shard.seed = 0xdeadbeefcafef00dULL;
  one_shard.complete = true;
  one_shard.events = 1000;
  one_shard.events_per_sec = 123456.5;
  one_shard.wall_seconds = 0.0081;
  one_shard.hops = 62;
  one_shard.elementary_moves = 69;
  one_shard.messages_sent = 4242;
  one_shard.iterations = 9;
  one_shard.sim_ticks = 5000;
  one_shard.block_count = 16;
  one_shard.conn_fast_hits = 900;
  one_shard.conn_slow_floods = 12;
  one_shard.phase_drain_s = 0.5;
  one_shard.barrier_wait_fraction = 0.01;
  one_shard.stop_reason = sim::StopReason::kHalted;
  report.add_row(one_shard);

  RunRow split;
  split.scenario = "blob1000";
  split.ruleset = "shards4";
  split.seed = 7;
  split.complete = true;
  split.events = 1000;
  split.events_per_sec = 2.5e6;
  split.wall_seconds = 0.0004;
  split.hops = 120;
  split.elementary_moves = 131;
  split.messages_sent = 9000;
  split.iterations = 40;
  split.sim_ticks = 7777;
  split.block_count = 1000;
  split.shards = 4;
  split.conn_fast_hits = 100;
  split.conn_slow_floods = 3;
  split.shard_events = {300, 250, 260, 190};
  split.phase_fold_s = 0.001;
  split.phase_integrate_s = 0.002;
  split.phase_decide_s = 0.0005;
  split.phase_drain_s = 0.04;
  split.phase_barrier_wait_s = 0.02;
  split.barrier_wait_fraction = 0.25;
  report.add_row(split);

  RunRow no_split = split;
  no_split.seed = 8;
  no_split.complete = false;
  no_split.shard_events.clear();
  no_split.phase_drain_s = 0.06;
  no_split.barrier_wait_fraction = 0.5;
  no_split.stop_reason = sim::StopReason::kEventLimit;
  report.add_row(no_split);

  RunRow huge = one_shard;
  huge.seed = 0xffffffffffffffffULL;
  huge.events = (1ULL << 53) + 1;
  huge.hops = (1ULL << 60) + 5;
  huge.sim_ticks = 0xffffffffffffff01ULL;
  huge.conn_slow_floods = (1ULL << 54) + 3;
  report.add_row(huge);
  return report;
}

// The report's bytes for those rows, recorded before run entries were
// written from the field list (visit_row_fields): a key renamed, moved or
// dropped, or a number printed in another form, fails here.
TEST(BenchReportJson, HandBuiltRowsPrintTheRecordedBytes) {
  EXPECT_EQ(pinned_report().to_json_text(), R"({
  "schema": "sb-bench-sim/v1",
  "generator": "runner_test",
  "master_seed": "0x123456789abcdef",
  "threads": 3,
  "cores": 8,
  "runs": [
    {
      "scenario": "tower16",
      "ruleset": "standard",
      "seed": "0xdeadbeefcafef00d",
      "complete": true,
      "blocks": 16,
      "events": 1000,
      "events_per_sec": 123456.5,
      "wall_seconds": 0.0080999999999999996,
      "hops": 62,
      "elementary_moves": 69,
      "messages_sent": 4242,
      "iterations": 9,
      "sim_ticks": 5000,
      "shards": 1,
      "conn_fast_hits": 900,
      "conn_slow_floods": 12
    },
    {
      "scenario": "blob1000",
      "ruleset": "shards4",
      "seed": "0x7",
      "complete": true,
      "blocks": 1000,
      "events": 1000,
      "events_per_sec": 2500000,
      "wall_seconds": 0.00040000000000000002,
      "hops": 120,
      "elementary_moves": 131,
      "messages_sent": 9000,
      "iterations": 40,
      "sim_ticks": 7777,
      "shards": 4,
      "conn_fast_hits": 100,
      "conn_slow_floods": 3,
      "shard_events": [
        300,
        250,
        260,
        190
      ],
      "phase_seconds": {
        "fold_s": 0.001,
        "integrate_s": 0.002,
        "decide_s": 0.00050000000000000001,
        "drain_s": 0.040000000000000001,
        "barrier_wait_s": 0.02
      },
      "barrier_wait_fraction": 0.25
    },
    {
      "scenario": "blob1000",
      "ruleset": "shards4",
      "seed": "0x8",
      "complete": false,
      "blocks": 1000,
      "events": 1000,
      "events_per_sec": 2500000,
      "wall_seconds": 0.00040000000000000002,
      "hops": 120,
      "elementary_moves": 131,
      "messages_sent": 9000,
      "iterations": 40,
      "sim_ticks": 7777,
      "shards": 4,
      "conn_fast_hits": 100,
      "conn_slow_floods": 3,
      "phase_seconds": {
        "fold_s": 0.001,
        "integrate_s": 0.002,
        "decide_s": 0.00050000000000000001,
        "drain_s": 0.059999999999999998,
        "barrier_wait_s": 0.02
      },
      "barrier_wait_fraction": 0.5
    },
    {
      "scenario": "tower16",
      "ruleset": "standard",
      "seed": "0xffffffffffffffff",
      "complete": true,
      "blocks": 16,
      "events": 9007199254740992,
      "events_per_sec": 123456.5,
      "wall_seconds": 0.0080999999999999996,
      "hops": 1.152921504606847e+18,
      "elementary_moves": 69,
      "messages_sent": 4242,
      "iterations": 9,
      "sim_ticks": 1.8446744073709552e+19,
      "shards": 1,
      "conn_fast_hits": 900,
      "conn_slow_floods": 18014398509481988
    }
  ],
  "summary": [
    {
      "scenario": "tower16",
      "ruleset": "standard",
      "runs": 2,
      "completed": 2,
      "shards": 1,
      "events_per_sec": {
        "mean": 123456.5,
        "min": 123456.5,
        "max": 123456.5,
        "stddev": 0
      },
      "wall_seconds": {
        "mean": 0.0080999999999999996,
        "min": 0.0080999999999999996,
        "max": 0.0080999999999999996,
        "stddev": 0
      },
      "hops": {
        "mean": 5.7646075230342349e+17,
        "min": 62,
        "max": 1.152921504606847e+18,
        "stddev": 8.1523861408329894e+17
      },
      "elementary_moves": {
        "mean": 69,
        "min": 69,
        "max": 69,
        "stddev": 0
      },
      "messages_sent": {
        "mean": 4242,
        "min": 4242,
        "max": 4242,
        "stddev": 0
      },
      "conn_fast_rate": {
        "mean": 0.49342105263160391,
        "min": 4.9960036108129539e-14,
        "max": 0.98684210526315785,
        "stddev": 0.69780274459195235
      },
      "shard_imbalance": {
        "mean": 0,
        "min": 0,
        "max": 0,
        "stddev": 0
      },
      "barrier_wait_fraction": {
        "mean": 0.01,
        "min": 0.01,
        "max": 0.01,
        "stddev": 0
      }
    },
    {
      "scenario": "blob1000",
      "ruleset": "shards4",
      "runs": 2,
      "completed": 1,
      "shards": 4,
      "events_per_sec": {
        "mean": 2500000,
        "min": 2500000,
        "max": 2500000,
        "stddev": 0
      },
      "wall_seconds": {
        "mean": 0.00040000000000000002,
        "min": 0.00040000000000000002,
        "max": 0.00040000000000000002,
        "stddev": 0
      },
      "hops": {
        "mean": 120,
        "min": 120,
        "max": 120,
        "stddev": 0
      },
      "elementary_moves": {
        "mean": 131,
        "min": 131,
        "max": 131,
        "stddev": 0
      },
      "messages_sent": {
        "mean": 9000,
        "min": 9000,
        "max": 9000,
        "stddev": 0
      },
      "conn_fast_rate": {
        "mean": 0.970873786407767,
        "min": 0.970873786407767,
        "max": 0.970873786407767,
        "stddev": 0
      },
      "shard_imbalance": {
        "mean": 0.59999999999999998,
        "min": 0,
        "max": 1.2,
        "stddev": 0.84852813742385702
      },
      "barrier_wait_fraction": {
        "mean": 0.375,
        "min": 0.25,
        "max": 0.5,
        "stddev": 0.17677669529663689
      }
    }
  ]
}
)");
}

}  // namespace
}  // namespace sb::runner
