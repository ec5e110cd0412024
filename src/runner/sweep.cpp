#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sb::runner {

uint64_t derive_run_seed(uint64_t master_seed, size_t index) {
  // Fork an independent child stream per index (SplitMix64 expansion, see
  // util/rng.hpp); unlike master_seed + index this decorrelates neighbours.
  return Rng(master_seed).fork(index).seed();
}

std::vector<RunSpec> expand(const SweepGrid& grid) {
  SB_EXPECTS(!grid.scenarios.empty(), "sweep grid has no scenarios");
  std::vector<std::pair<std::string, core::SessionConfig>> configs =
      grid.configs;
  if (configs.empty()) configs.push_back({"standard", core::SessionConfig{}});

  std::vector<uint64_t> seeds = grid.seeds;
  if (seeds.empty()) {
    SB_EXPECTS(grid.seed_count > 0, "sweep grid needs at least one seed");
    seeds.reserve(grid.seed_count);
    for (size_t i = 0; i < grid.seed_count; ++i) {
      seeds.push_back(derive_run_seed(grid.master_seed, i));
    }
  }

  std::vector<RunSpec> specs;
  specs.reserve(grid.scenarios.size() * configs.size() * seeds.size());
  for (const auto& [scenario_label, scenario] : grid.scenarios) {
    for (const auto& [config_label, config] : configs) {
      for (const uint64_t seed : seeds) {
        RunSpec spec;
        spec.scenario_label = scenario_label;
        spec.scenario = scenario;
        spec.ruleset = config_label;
        spec.config = config;
        spec.seed = seed;
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options options) : options_(std::move(options)) {}

size_t SweepRunner::effective_threads(size_t jobs) const {
  size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<size_t>(1, std::min(threads, jobs));
}

SweepRun execute_run(const RunSpec& spec, bool capture_trace,
                     size_t shard_threads) {
  core::SessionConfig config = spec.config;
  config.sim.seed = spec.seed;
  if (shard_threads != 0) config.sim.shard_threads = shard_threads;

  core::ReconfigurationSession session(spec.scenario, config);
  SweepRun out;
  if (capture_trace) {
    session.set_move_listener([&out](core::Epoch epoch, lat::BlockId block,
                                     const motion::RuleApplication& app) {
      out.move_trace.push_back(core::move_trace_line(epoch, block, app));
    });
  }
  out.row =
      make_row(spec.scenario_label, spec.ruleset, spec.seed, session.run());
  return out;
}

SweepResult SweepRunner::run(const std::vector<RunSpec>& specs) const {
  SweepResult result;
  result.runs.resize(specs.size());
  const size_t threads = effective_threads(specs.size());
  if (specs.empty()) {
    result.report = assemble_report(options_, {});
    return result;
  }

  // Work-stealing by atomic index: which thread runs which spec varies, but
  // each run is self-contained and lands at its spec index, so the result
  // is independent of the schedule.
  std::atomic<size_t> next{0};
  std::atomic<size_t> finished{0};
  const auto worker = [&]() {
    for (;;) {
      const size_t index = next.fetch_add(1);
      if (index >= specs.size()) return;
      result.runs[index] = execute_run(specs[index], options_.capture_traces);
      const size_t done = finished.fetch_add(1) + 1;
      if (options_.on_progress) options_.on_progress(done, specs.size());
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  std::vector<RunRow> rows;
  rows.reserve(result.runs.size());
  for (const SweepRun& run : result.runs) rows.push_back(run.row);
  result.report = assemble_report(options_, rows);
  return result;
}

SweepResult SweepRunner::run_grid(const SweepGrid& grid) const {
  return run(expand(grid));
}

BenchReport assemble_report(const SweepRunner::Options& options,
                            const std::vector<RunRow>& rows) {
  BenchReport report(options.generator);
  report.set_master_seed(options.master_seed);
  report.set_threads(SweepRunner(options).effective_threads(rows.size()));
  report.set_cores(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  for (const RunRow& row : rows) report.add_row(row);
  return report;
}

}  // namespace sb::runner
