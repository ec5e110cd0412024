// The four workloads of bench_e2e, one measured unit of each, and the
// correctness checks every unit must pass. Sizes and reasons: README.md.

#include <algorithm>

#include "e2e.hpp"
#include "msg/latency.hpp"
#include "obs/trace.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"

namespace sb::e2e {

std::vector<Workload> make_workloads(bool smoke) {
  std::vector<Workload> workloads;
  const auto session = [&](const char* name, const char* scenario,
                           size_t shards, uint32_t epoch_cap) {
    Workload w;
    w.name = name;
    w.scenario = scenario;
    w.shards = shards;
    w.epoch_cap = epoch_cap;
    workloads.push_back(std::move(w));
  };
  // Units take well under a second, so a run holds dozens of them and the
  // calibration passes between them follow the host's speed closely. Blobs
  // are capped by epochs, not events: they do not converge within the
  // 500M-event default, and an epoch cap keeps the unit of work fixed even
  // when a change alters the messages per election.
  session("tower-converge", smoke ? "tower32" : "tower128", 1, 0);
  session("blob-epochs", smoke ? "blob10000" : "blob100000", 1, 1);
  // One shard thread (SimConfig's default), so the engine runs its rounds
  // inline: with spawned workers, sim::WindowBarrier can lose a wakeup and
  // hang every thread in its futex wait (once in ~25 runs of 25 s at 4
  // threads on this toolchain), which no benchmark run may do.
  session("blob-shard4", smoke ? "blob10000" : "blob100000", 4, 1);
  Workload sweep;
  sweep.name = "sweep-local";
  sweep.kind = WorkloadKind::kSweep;
  sweep.sweep_scenarios = smoke ? std::vector<std::string>{"tower16", "tower24",
                                                           "tower32"}
                                : std::vector<std::string>{"tower32", "tower64",
                                                           "tower96"};
  sweep.sweep_seeds = smoke ? 2 : 3;
  workloads.push_back(std::move(sweep));
  return workloads;
}

namespace {

core::SessionConfig session_config(const Workload& workload, uint64_t seed,
                                   size_t shards) {
  core::SessionConfig config;
  config.sim.seed = seed;
  // The paper's asynchronous links: the seed changes the execution, not
  // just the label.
  config.sim.latency = msg::LatencyModel::uniform(1, 8);
  config.sim.shards = shards;
  config.max_iterations = workload.epoch_cap;
  return config;
}

/// Lemma 1 / Remark 4 on the extremal tower family: N blocks converge in
/// exactly N^2/4 - 2 hops (62, 1022, 4094, 16382 for N = 16, 64, 128, 256).
uint64_t tower_hops(uint64_t blocks) { return blocks * blocks / 4 - 2; }

std::string check_session(const Workload& workload,
                          const lat::Scenario& scenario, lat::WorldView view,
                          const core::SessionResult& result) {
  if (workload.epoch_cap == 0) {
    if (!result.complete) {
      return fmt("did not converge (stopped: {})",
                 sim::to_string(result.stop_reason));
    }
    if (result.premature_completion) return "premature completion";
    const uint64_t hops = tower_hops(scenario.block_count());
    if (result.hops != hops) {
      return fmt("{} hops; N^2/4 - 2 = {}", result.hops, hops);
    }
    if (!result.path.has_value() ||
        result.path->size() != static_cast<size_t>(result.path_cells)) {
      return "no occupied shortest path";
    }
    for (const lat::Vec2 cell : *result.path) {
      if (!view.occupied(cell)) return fmt("path cell {} is empty", cell);
    }
    return {};
  }
  // An epoch-capped blob must stop at the cap, which tells the cap apart
  // from a genuine block.
  if (result.iterations != workload.epoch_cap) {
    return fmt("stopped after {} epochs, not at the cap of {}",
               result.iterations, workload.epoch_cap);
  }
  if (view.block_count() != scenario.block_count()) {
    return fmt("{} blocks at the end, {} at the start", view.block_count(),
               scenario.block_count());
  }
  if (!view.connected_ground_truth()) return "final world is disconnected";
  return {};
}

}  // namespace

SessionUnit run_session_unit(const Workload& workload, uint64_t seed,
                             const UnitOptions& options) {
  SessionUnit unit;
  const auto generate_start = Clock::now();
  {
    // Blob shapes come from the generator's default seed, so every unit of
    // a workload measures the same world (a shape lottery moves peak RSS by
    // whole queue-capacity doublings); `seed` drives the execution.
    const obs::TraceSpan span("lattice.generate", "bench");
    unit.scenario = lat::resolve_scenario(workload.scenario);
  }
  unit.generate_s = seconds_since(generate_start);

  const auto build_start = Clock::now();
  auto session = [&] {
    const obs::TraceSpan span("core.session_build", "bench");
    return std::make_unique<core::ReconfigurationSession>(
        unit.scenario, session_config(workload, seed, options.shards));
  }();
  unit.build_s = seconds_since(build_start);

  // Hops land in sequential context (between shard windows), so the
  // listener never runs concurrently with itself or with a window.
  sim::Simulator* simulator = &session->simulator();
  Clock::time_point last_hop;
  session->set_move_listener([&unit, &last_hop, simulator](
                                 core::Epoch epoch, lat::BlockId,
                                 const motion::RuleApplication&) {
    const Clock::time_point now = Clock::now();
    unit.epoch_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last_hop).count());
    last_hop = now;
    unit.pending_max = std::max(unit.pending_max, simulator->pending_events());
    obs::TraceWriter& tracer = obs::TraceWriter::instance();
    if (tracer.enabled()) tracer.instant("core.hop", "bench", {{"epoch", epoch}});
  });

  const util::PoolCounters pool_before = util::pool_counters();
  const auto run_start = Clock::now();
  last_hop = run_start;
  {
    const obs::TraceSpan span("core.run", "bench");
    if (options.sample_queue_depth && options.shards == 1) {
      // Resuming the classic loop is exact, so the chunks run the same
      // events; run() then only collects the result.
      constexpr uint64_t kChunkEvents = 4096;
      while (session->step_events(kChunkEvents) ==
             sim::StopReason::kEventLimit) {
        unit.pending_max =
            std::max(unit.pending_max, simulator->pending_events());
      }
    }
    unit.result = session->run();
  }
  unit.run_s = seconds_since(run_start);
  const util::PoolCounters pool_after = util::pool_counters();
  unit.pool.allocations = pool_after.allocations - pool_before.allocations;
  unit.pool.free_list_hits =
      pool_after.free_list_hits - pool_before.free_list_hits;
  unit.pool.slabs_created = pool_after.slabs_created - pool_before.slabs_created;
  session->set_move_listener(nullptr);  // it captures this frame's locals

  unit.failure = check_session(workload, unit.scenario,
                               session->simulator().world().view(),
                               unit.result);
  if (options.keep_session) unit.session = std::move(session);
  return unit;
}

// -- sweeps -------------------------------------------------------------------

namespace {

runner::SweepCliOptions sweep_options(const Workload& workload,
                                      uint64_t seed) {
  runner::SweepCliOptions options;
  options.scenarios = workload.sweep_scenarios;
  options.seed_count = workload.sweep_seeds;
  options.master_seed = seed;
  options.latency = "uniform";
  options.threads = kSweepWorkers;
  return options;
}

runner::SweepRunner::Options runner_options(uint64_t seed) {
  runner::SweepRunner::Options options;
  options.threads = kSweepWorkers;
  options.master_seed = seed;
  options.generator = "bench_e2e";
  options.on_progress = [](size_t done, size_t) {
    obs::TraceWriter& tracer = obs::TraceWriter::instance();
    if (tracer.enabled()) tracer.instant("runner.run", "bench", {{"done", done}});
  };
  return options;
}

void check_sweep(const Workload& workload, uint64_t seed, SweepUnit& unit) {
  const size_t expected = workload.sweep_runs();
  if (unit.rows.size() != expected) {
    unit.failed_rows = expected;
    unit.failure = fmt("{} rows back of {}", unit.rows.size(), expected);
    return;
  }
  for (const runner::RunRow& row : unit.rows) {
    const uint64_t hops = tower_hops(row.block_count);
    if (row.complete && row.hops == hops) continue;
    ++unit.failed_rows;
    if (unit.failure.empty()) {
      unit.failure = fmt("{} seed {}: complete={} hops={} (expected {})",
                         row.scenario, util::hex_u64(row.seed), row.complete,
                         row.hops, hops);
    }
  }
  runner::BenchReport report = sweep_report(seed, unit.rows);
  report.scrub_timing();
  Digest digest;
  digest.add(report.to_json_text());
  unit.report_digest = digest.value();
}

}  // namespace

runner::BenchReport sweep_report(uint64_t seed,
                                 const std::vector<runner::RunRow>& rows) {
  return runner::assemble_report(runner_options(seed), rows);
}

SweepUnit run_sweep_unit(const Workload& workload, uint64_t seed) {
  SweepUnit unit;
  const auto setup_start = Clock::now();
  std::vector<runner::RunSpec> specs;
  {
    const obs::TraceSpan span("lattice.generate", "bench");
    specs =
        runner::expand(runner::make_sweep_grid(sweep_options(workload, seed)));
  }
  unit.setup_s = seconds_since(setup_start);
  const auto run_start = Clock::now();
  runner::SweepResult result;
  {
    const obs::TraceSpan span("runner.sweep", "bench");
    result = runner::SweepRunner(runner_options(seed)).run(specs);
  }
  unit.run_s = seconds_since(run_start);
  for (runner::SweepRun& run : result.runs) {
    unit.rows.push_back(std::move(run.row));
  }
  check_sweep(workload, seed, unit);
  return unit;
}

}  // namespace sb::e2e
