#include "check/differential.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "dist/coordinator.hpp"
#include "dist/spawn.hpp"
#include "dist/worker.hpp"
#include "lattice/world_view.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "sim/event.hpp"
#include "util/fmt.hpp"

namespace sb::check {

namespace {

/// Shared by the churn events of one backend run (owned by run_backend's
/// stack frame, which outlives the simulator run).
struct ChurnState {
  core::ReconfigurationSession* session = nullptr;
  InvariantOracle* oracle = nullptr;
  /// Next id handed to a hot-joined block (starts past the scenario's max).
  uint32_t next_id = 0;
};

/// External event executing one ChurnOp. Victims and join sites are
/// resolved from the live grid at fire time (see ChurnOp::ordinal), so the
/// same plan stays meaningful while the minimizer shrinks the scenario.
class ChurnEvent : public sim::Event {
 public:
  ChurnEvent(ChurnOp op, ChurnState* state) : op_(op), state_(state) {}

  [[nodiscard]] std::string_view kind() const override { return "Churn"; }

  void execute(sim::Simulator& sim) override {
    if (op_.kind == ChurnOp::Kind::kKill) {
      execute_kill(sim);
    } else {
      execute_join(sim);
    }
  }

 private:
  void execute_kill(sim::Simulator& sim) {
    const lat::BlockId root = state_->session->scenario().root_id();
    std::vector<lat::BlockId> candidates;
    sim.for_each_module([&](sim::Module& module) {
      if (module.alive() && module.id() != root) {
        candidates.push_back(module.id());
      }
    });
    if (candidates.empty()) return;  // everyone already dead; no-op
    sim.kill_module(candidates[op_.ordinal % candidates.size()]);
  }

  void execute_join(sim::Simulator& sim) {
    const lat::WorldView view = sim.world().view();
    const lat::Vec2 output = state_->session->scenario().output;
    const size_t cells = view.cell_count();
    const size_t offset = op_.ordinal % cells;
    for (size_t i = 0; i < cells; ++i) {
      const size_t index = (offset + i) % cells;
      const lat::Vec2 pos{
          static_cast<int32_t>(index % static_cast<size_t>(view.width())),
          static_cast<int32_t>(index / static_cast<size_t>(view.width()))};
      if (view.occupied(pos) || pos == output) continue;
      if (view.occupied_neighbor_count(pos) == 0) continue;
      // A cell an in-flight motion sweeps is not really free: the mover
      // lands there before this join's effects settle. Docking into it
      // would make the landing physically impossible.
      if (sim.cell_in_motion(pos)) continue;
      state_->session->hot_join(lat::BlockId{state_->next_id++}, pos);
      if (state_->oracle != nullptr) state_->oracle->expect_join();
      return;
    }
    // No attachable free cell (surface packed solid): drop the op.
  }

  ChurnOp op_;
  ChurnState* state_;
};

std::string dump_final_blocks(lat::WorldView view) {
  std::ostringstream os;
  for (const auto& [id, pos] : view.blocks()) {
    os << id.value << '@' << pos.x << ',' << pos.y << '\n';
  }
  return os.str();
}

/// First index at which two string vectors differ; SIZE_MAX when equal.
size_t first_difference(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  const size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) return i;
  }
  return a.size() == b.size() ? SIZE_MAX : common;
}

void diff_traces(const std::string& label, const std::vector<std::string>& a,
                 const std::string& a_name,
                 const std::vector<std::string>& b,
                 const std::string& b_name,
                 std::vector<std::string>& divergences) {
  const size_t at = first_difference(a, b);
  if (at == SIZE_MAX) return;
  const auto line_of = [at](const std::vector<std::string>& trace) {
    return at < trace.size() ? trace[at]
                             : fmt("<ended at {} lines>", trace.size());
  };
  divergences.push_back(fmt("{} diverges at line {}:\n  {}: {}\n  {}: {}",
                            label, at, a_name, line_of(a), b_name,
                            line_of(b)));
}

/// Outcome fields that must agree across *engines* (schedule-independent
/// under comparable knobs). Message and planner-memo counters are
/// deliberately absent: they depend on the shard layout by construction.
std::string outcome_digest(const core::SessionResult& result) {
  return fmt(
      "complete={} blocked={} stop={} iterations={} hops={} "
      "repositioning={} elementary_moves={} premature={}",
      result.complete, result.blocked, to_string(result.stop_reason),
      result.iterations, result.hops, result.repositioning_hops,
      result.elementary_moves, result.premature_completion);
}

/// The per-kind message counts, " <kind>=<count>" each.
std::string kinds_digest(const core::SessionResult& result) {
  std::string digest;
  for (const auto& [kind, count] : result.messages_by_kind) {
    digest += fmt(" {}={}", kind, count);
  }
  return digest;
}

/// Full-result digest for same-engine comparisons (B vs C), where every
/// counter — messages and their per-kind split included — must be
/// identical.
std::string full_digest(const core::SessionResult& result) {
  return fmt("{} messages_sent={} messages_delivered={} messages_dropped={} "
             "distance_computations={} elections={} sim_ticks={} events={}{}",
             outcome_digest(result), result.messages_sent,
             result.messages_delivered, result.messages_dropped,
             result.distance_computations, result.elections_completed,
             result.sim_ticks, result.events_processed, kinds_digest(result));
}

}  // namespace

// -- distributed backend comparison -----------------------------------------

std::string compare_dist_backend(const FuzzCase& fuzz_case,
                                 const DiffOptions& options) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      fmt("sb-fuzz-dist-{}-{}.surf", ::getpid(), util::hex_u64(fuzz_case.seed));
  {
    std::ofstream out(path);
    if (!out) return fmt("dist: cannot write scratch scenario '{}'",
                         path.string());
    out << lat::serialize_scenario(fuzz_case.scenario);
  }

  runner::SweepCliOptions grid;
  grid.scenarios = {path.string()};
  grid.seed_count = 1;
  grid.master_seed = fuzz_case.seed;
  grid.latency = fuzz_case.latency_kind == "uniform" ? "uniform" : "fixed";
  grid.threads = 1;

  std::string divergence;
  try {
    runner::SweepRunner::Options ropts;
    ropts.threads = 1;
    ropts.master_seed = grid.master_seed;
    runner::BenchReport local = runner::SweepRunner(ropts)
                                    .run(runner::expand(
                                        runner::make_sweep_grid(grid)))
                                    .report;
    local.scrub_timing();

    dist::Coordinator::Options copts;
    copts.total_timeout_ms = options.dist_total_timeout_ms;
    dist::Coordinator coordinator(grid, copts);
    const size_t fleet_size = std::max<size_t>(1, options.dist_workers);
    std::vector<dist::WorkerProcess> fleet;
    std::vector<std::thread> threads;
    std::vector<int> codes(fleet_size, -1);
    if (!options.dist_worker_binary.empty()) {
      fleet = dist::spawn_worker_fleet(options.dist_worker_binary,
                                       "127.0.0.1", coordinator.port(),
                                       fleet_size);
    } else {
      dist::Worker::Options wopts;
      wopts.port = coordinator.port();
      wopts.heartbeat_ms = 50;
      for (size_t i = 0; i < fleet_size; ++i) {
        threads.emplace_back(
            [&, i] { codes[i] = dist::Worker(wopts).run(); });
      }
    }
    const std::vector<runner::RunRow> rows = coordinator.run();
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < fleet.size(); ++i) {
      codes[i] = dist::reap_worker(fleet[i]);
    }

    runner::BenchReport merged = runner::assemble_report(ropts, rows);
    merged.scrub_timing();
    const auto bad = std::find_if(codes.begin(), codes.end(),
                                  [](int code) { return code != 0; });
    if (bad != codes.end()) {
      divergence = fmt("dist: worker {} exited {}", bad - codes.begin(), *bad);
    } else if (merged.to_json_text() != local.to_json_text()) {
      divergence = fmt(
          "dist: merged report differs from local sweep\n  local: {}\n  "
          "dist:  {}",
          local.to_json_text(), merged.to_json_text());
    }
  } catch (const std::exception& error) {
    divergence = fmt("dist: {}", error.what());
  }
  std::error_code ignored;
  fs::remove(path, ignored);
  return divergence;
}

BackendRun run_backend(const FuzzCase& fuzz_case, std::string name,
                       size_t shards, size_t threads,
                       const OracleOptions& oracle_options) {
  core::SessionConfig config = fuzz_case.session_config();
  config.sim.seed = fuzz_case.seed;
  config.sim.shards = shards;
  config.sim.shard_threads = threads;

  BackendRun run;
  run.name = std::move(name);

  core::ReconfigurationSession session(fuzz_case.scenario, config);
  session.simulator().enable_event_trace();

  InvariantOracle oracle(oracle_options);
  oracle.attach(session,
                [&run](core::Epoch epoch, lat::BlockId mover,
                       const motion::RuleApplication& app) {
                  run.move_trace.push_back(
                      core::move_trace_line(epoch, mover, app));
                });

  uint32_t max_id = 0;
  for (const auto& [id, pos] : fuzz_case.scenario.blocks) {
    max_id = std::max(max_id, id.value);
  }
  ChurnState churn_state{&session, &oracle, max_id + 1};
  for (const ChurnOp& op : fuzz_case.churn) {
    session.simulator().schedule(
        op.at, std::make_unique<ChurnEvent>(op, &churn_state));
  }

  run.result = session.run();
  run.event_trace = session.simulator().event_trace();
  run.final_blocks = dump_final_blocks(session.simulator().world().view());
  oracle.check_now(session.simulator());
  run.violations = oracle.violations();
  run.oracle_checks = oracle.checks_run();
  return run;
}

DiffOutcome run_case(const FuzzCase& fuzz_case, const DiffOptions& options) {
  DiffOutcome outcome;
  outcome.case_description = fuzz_case.describe();

  // SB_DIFF_THREADS_OVERRIDE widens backend C's shard-thread count without
  // touching every call site — CI reruns the suites at 4 threads to sweep
  // the channel engine's rendezvous under real contention. Determinism
  // makes the override safe: traces must not depend on the thread count,
  // which is exactly what the comparison below enforces.
  size_t alt_threads = options.alt_threads;
  if (const char* env = std::getenv("SB_DIFF_THREADS_OVERRIDE");
      env != nullptr && std::atoi(env) > 0) {
    alt_threads = static_cast<size_t>(std::atoi(env));
  }

  outcome.runs.push_back(
      run_backend(fuzz_case, "one-shard[shards=1]", 1, 1, options.oracle));
  outcome.runs.push_back(
      run_backend(fuzz_case, fmt("sharded[shards={},threads=1]",
                                 options.alt_shards),
                  options.alt_shards, 1, options.oracle));
  outcome.runs.push_back(
      run_backend(fuzz_case, fmt("sharded[shards={},threads={}]",
                                 options.alt_shards, alt_threads),
                  options.alt_shards, alt_threads, options.oracle));
  const BackendRun& single = outcome.runs[0];
  const BackendRun& sharded = outcome.runs[1];
  const BackendRun& sharded_mt = outcome.runs[2];

  // B vs C: thread count must be invisible — byte-identical everything.
  diff_traces("thread-count: event trace", sharded.event_trace, sharded.name,
              sharded_mt.event_trace, sharded_mt.name, outcome.divergences);
  diff_traces("thread-count: move trace", sharded.move_trace, sharded.name,
              sharded_mt.move_trace, sharded_mt.name, outcome.divergences);
  if (full_digest(sharded.result) != full_digest(sharded_mt.result)) {
    outcome.divergences.push_back(
        fmt("thread-count: results differ\n  {}: {}\n  {}: {}", sharded.name,
            full_digest(sharded.result), sharded_mt.name,
            full_digest(sharded_mt.result)));
  }

  // A vs B: engines, on comparable cases that stayed inside the budget.
  const bool budget_hit =
      std::any_of(outcome.runs.begin(), outcome.runs.end(),
                  [](const BackendRun& run) {
                    return run.result.stop_reason ==
                           sim::StopReason::kEventLimit;
                  });
  if (!fuzz_case.comparable) {
    outcome.notes.push_back(
        "engine comparison skipped: schedule-dependent knobs (see "
        "FuzzCase::comparable)");
  } else if (budget_hit) {
    outcome.notes.push_back(
        "engine comparison skipped: event budget hit (above one shard, "
        "budgets land at window granularity)");
  } else {
    diff_traces("engine: move trace", single.move_trace, single.name,
                sharded.move_trace, sharded.name, outcome.divergences);
    if (outcome_digest(single.result) != outcome_digest(sharded.result)) {
      outcome.divergences.push_back(
          fmt("engine: outcomes differ\n  {}: {}\n  {}: {}", single.name,
              outcome_digest(single.result), sharded.name,
              outcome_digest(sharded.result)));
    }
    if (single.final_blocks != sharded.final_blocks) {
      outcome.divergences.push_back(
          fmt("engine: final occupancy differs\n  {}:\n{}  {}:\n{}",
              single.name, single.final_blocks, sharded.name,
              sharded.final_blocks));
    }
  }

  if (options.run_dist && fuzz_case.churn.empty()) {
    const std::string divergence = compare_dist_backend(fuzz_case, options);
    if (!divergence.empty()) outcome.divergences.push_back(divergence);
  } else if (options.run_dist) {
    outcome.notes.push_back(
        "dist comparison skipped: sweep grids cannot express churn");
  }

  return outcome;
}

bool DiffOutcome::ok() const {
  if (!divergences.empty()) return false;
  return std::all_of(runs.begin(), runs.end(), [](const BackendRun& run) {
    return run.violations.empty();
  });
}

std::string DiffOutcome::report() const {
  std::ostringstream os;
  os << "case: " << case_description << '\n';
  os << "verdict: " << (ok() ? "OK" : "FAIL") << '\n';
  for (const BackendRun& run : runs) {
    os << fmt("  {}: {} moves={} events={} checks={}",
              run.name,
              run.result.complete   ? "complete"
              : run.result.blocked  ? "blocked"
                                    : "inconclusive",
              run.move_trace.size(), run.result.events_processed,
              run.oracle_checks)
       << '\n';
  }
  for (const std::string& note : notes) os << "note: " << note << '\n';
  for (const std::string& divergence : divergences) {
    os << "divergence: " << divergence << '\n';
  }
  for (const BackendRun& run : runs) {
    for (const std::string& violation : run.violations) {
      os << fmt("invariant [{}]: {}", run.name, violation) << '\n';
    }
  }
  return os.str();
}

}  // namespace sb::check
