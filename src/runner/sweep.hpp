#pragma once
// SweepRunner: executes many independent simulated worlds concurrently.
//
// A sweep is a grid of (scenario x seed x config/rule-set) runs. Each run is
// a self-contained ReconfigurationSession executed wholly on one worker
// thread; the runner only hands out run indices, so results are bitwise
// identical at any thread count. Per-run RNG seeds are forked
// deterministically from the master seed by run index (never by execution
// order), which makes every run individually reproducible:
//
//   runner::SweepGrid grid;
//   grid.scenarios.push_back({"tower16", lat::make_tower_scenario(8)});
//   grid.seed_count = 8;
//   runner::SweepRunner runner({.threads = 4});
//   runner::SweepResult result = runner.run(runner::expand(grid));
//   result.report.write_file("BENCH_sim.json");

#include <functional>
#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "runner/report.hpp"

namespace sb::runner {

/// One cell of the sweep grid: a scenario, a config variant (rule-set,
/// latency model, ...), and a seed. The runner copies `config`, overrides
/// config.sim.seed with `seed`, and runs the session.
struct RunSpec {
  std::string scenario_label;
  lat::Scenario scenario;
  std::string ruleset = "standard";
  core::SessionConfig config;
  uint64_t seed = 0x5eedULL;
};

/// Declarative grid; expand() produces the cross product.
struct SweepGrid {
  /// (label, scenario) pairs.
  std::vector<std::pair<std::string, lat::Scenario>> scenarios;
  /// (label, config) variants; when empty, one default-config variant.
  std::vector<std::pair<std::string, core::SessionConfig>> configs;
  /// Explicit seeds. When empty, seed_count seeds are forked from
  /// master_seed (see derive_run_seed).
  std::vector<uint64_t> seeds;
  size_t seed_count = 1;
  uint64_t master_seed = 0x5eedULL;
};

/// Deterministic per-run seed: depends only on (master_seed, index).
[[nodiscard]] uint64_t derive_run_seed(uint64_t master_seed, size_t index);

/// Cross product scenarios x configs x seeds, in that nesting order.
[[nodiscard]] std::vector<RunSpec> expand(const SweepGrid& grid);

/// Outcome of one run, in spec order regardless of thread schedule.
struct SweepRun {
  RunRow row;
  /// One line per elected hop ("epoch block rule@anchor from->to"); filled
  /// when SweepOptions::capture_traces. Byte-identical across thread counts
  /// for a fixed (scenario, config, seed).
  std::vector<std::string> move_trace;
};

struct SweepResult {
  std::vector<SweepRun> runs;
  BenchReport report{"sweep"};
};

/// Executes one spec wholly on the calling thread — the single-run kernel
/// shared by the thread-pool runner and the distributed workers (dist/).
/// `shard_threads` != 0 overrides config.sim.shard_threads (dist::Worker
/// passes its own); the row is independent of both knobs.
[[nodiscard]] SweepRun execute_run(const RunSpec& spec,
                                   bool capture_trace = false,
                                   size_t shard_threads = 0);

class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency.
    size_t threads = 0;
    /// Recorded in the report; also used by run_grid for seed forking.
    uint64_t master_seed = 0x5eedULL;
    /// Record per-run move traces (costs memory; used by determinism tests
    /// and trace dumps).
    bool capture_traces = false;
    /// Name recorded as the report generator.
    std::string generator = "sweep";
    /// Progress callback, invoked from worker threads after each finished
    /// run with (finished_count, total). Must be thread-safe; empty = none.
    std::function<void(size_t, size_t)> on_progress;
  };

  SweepRunner();  // default options
  explicit SweepRunner(Options options);

  /// Executes all specs; blocks until done. Results are in spec order.
  [[nodiscard]] SweepResult run(const std::vector<RunSpec>& specs) const;

  /// expand() + run() in one call.
  [[nodiscard]] SweepResult run_grid(const SweepGrid& grid) const;

  [[nodiscard]] size_t effective_threads(size_t jobs) const;

 private:
  Options options_;
};

/// Builds the report exactly as SweepRunner::run does (generator and master
/// seed from `options`, threads = effective_threads(rows.size()), rows in
/// order). The distributed coordinator assembles its merged report through
/// this same function, which is what makes a dist BENCH_sim.json
/// byte-identical to a local one for the same grid.
[[nodiscard]] BenchReport assemble_report(const SweepRunner::Options& options,
                                          const std::vector<RunRow>& rows);

}  // namespace sb::runner
