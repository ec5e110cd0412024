// Scale demonstration: the paper's motivation for distributed control is
// that elections, not a central planner, coordinate the blocks - so the
// same BlockCode runs unchanged from 12 blocks to hundreds.
//
//   $ ./large_scale [--half-height 32] [--quiet]
//   $ ./large_scale --scenario blob10000 --shards 4 --shard-threads 4
//
// Fleet mode runs the same scenario over many forked seeds on the parallel
// sweep harness (runner/) and reports aggregate statistics:
//
//   $ ./large_scale --half-height 32 --seeds 8 --threads 4 [--json out.json]
//
// The grid flags (--scenario, --seeds, --shards, --latency, ...) are the
// shared sweep vocabulary from runner/cli_options, identical to tools/sweep;
// --scenario overrides --half-height.

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "util/cli.hpp"
#include "viz/ascii.hpp"

namespace {

int run_single(const sb::lat::Scenario& scenario,
               const sb::core::SessionConfig& config, bool quiet) {
  sb::core::ReconfigurationSession session(scenario, config);
  const auto start = std::chrono::steady_clock::now();
  const sb::core::SessionResult result = session.run();
  const auto end = std::chrono::steady_clock::now();

  std::printf("%s", result.summary().c_str());
  const double wall =
      std::chrono::duration<double>(end - start).count();
  std::printf("events/second: %.0f\n",
              static_cast<double>(result.events_processed) / wall);

  if (!quiet) {
    sb::viz::AsciiOptions options;
    options.show_ids = false;
    std::printf("%s", sb::viz::render_ascii(
                          session.simulator().world().view(),
                          scenario.input, scenario.output, options)
                          .c_str());
  }
  return result.complete ? 0 : 1;
}

int run_fleet(const sb::lat::Scenario& scenario,
              const sb::runner::SweepCliOptions& options,
              const std::string& json_path) {
  sb::runner::SweepGrid grid;
  grid.scenarios.push_back({scenario.name, scenario});
  grid.configs.push_back({sb::runner::ruleset_label(options),
                          sb::runner::make_session_config(options)});
  grid.seed_count = options.seed_count;
  grid.master_seed = options.master_seed;

  sb::runner::SweepRunner::Options ropts;
  ropts.threads = options.threads;
  ropts.master_seed = options.master_seed;
  ropts.generator = "large_scale";
  sb::runner::SweepRunner runner(ropts);

  const auto specs = sb::runner::expand(grid);
  std::printf("fleet: %zu runs of '%s' (N = %zu) on %zu threads\n",
              specs.size(), scenario.name.c_str(), scenario.block_count(),
              runner.effective_threads(specs.size()));
  const sb::runner::SweepResult result = runner.run(specs);

  size_t completed = 0;
  for (const auto& group : result.report.summarize()) {
    completed += group.completed;
    std::printf(
        "completed %zu/%zu  hops mean=%.1f [%.0f, %.0f]  moves mean=%.1f  "
        "events/s mean=%.0f  wall mean=%.3fs\n",
        group.completed, group.runs, group.hops.mean(), group.hops.min(),
        group.hops.max(), group.elementary_moves.mean(),
        group.events_per_sec.mean(), group.wall_seconds.mean());
  }
  if (!json_path.empty()) {
    result.report.write_file(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return completed == result.runs.size() ? 0 : 1;
}

int run_large_scale(int argc, char** argv) {
  sb::CliParser cli("large-surface reconfiguration");
  // Shared sweep grid vocabulary (runner/cli_options), with this example's
  // defaults: no scenario (--half-height builds a tower) and --seeds 0
  // meaning single-run mode rather than a fleet.
  sb::runner::SweepCliOptions defaults;
  defaults.seed_count = 0;
  sb::runner::add_sweep_flags(cli, defaults);
  cli.add_int("half-height", 32,
              "tower half-height k (N = 2k blocks, path of 2k-1 cells); "
              "--scenario overrides");
  cli.add_bool("quiet", false, "skip the final ASCII rendering");
  cli.add_string("json", "", "fleet mode: write BENCH_sim.json here");
  if (!cli.parse(argc, argv)) return 1;

  // Shared parsing/validation; --seeds 0 selects single-run mode here
  // (tools/sweep requires >= 1).
  const sb::runner::SweepCliOptions options =
      sb::runner::parse_sweep_flags(cli, /*min_seeds=*/0);
  const bool fleet = options.seed_count != 0;

  sb::lat::Scenario scenario;
  if (options.scenarios.empty()) {
    scenario = sb::lat::make_tower_scenario(
        static_cast<int32_t>(cli.get_int("half-height")));
  } else if (options.scenarios.size() > 1) {
    // Refuse rather than silently run only the first one; multi-scenario
    // grids are tools/sweep territory.
    throw std::runtime_error(
        "large_scale runs a single scenario; use tools/sweep for "
        "multi-scenario grids");
  } else {
    scenario =
        sb::lat::resolve_scenario(options.scenarios.front(),
                                  options.master_seed);
  }
  std::printf("N = %zu blocks, shortest path of %d cells\n",
              scenario.block_count(),
              sb::lat::shortest_path_cells(scenario.input, scenario.output));

  if (fleet) {
    return run_fleet(scenario, options, cli.get_string("json"));
  }
  return run_single(scenario, sb::runner::make_session_config(options),
                    cli.get_bool("quiet"));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_large_scale(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "large_scale: %s\n", error.what());
    return 1;
  }
}
