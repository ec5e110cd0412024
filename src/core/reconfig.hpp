#pragma once
// ReconfigurationSession: sets up a scenario on the simulator, runs the
// distributed algorithm to completion, and reports the paper's metrics.
//
// This is the library's main entry point:
//
//   auto scenario = sb::lat::make_fig10_scenario();
//   sb::core::SessionConfig config;
//   auto result = sb::core::ReconfigurationSession::run_scenario(scenario,
//                                                                config);
//   // result.complete, result.hops, result.elementary_moves, ...

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/block_code.hpp"
#include "lattice/scenario.hpp"
#include "motion/rule_library.hpp"
#include "sim/simulator.hpp"

namespace sb::core {

struct SessionConfig {
  sim::SimConfig sim;
  /// Motion capabilities; defaults to RuleLibrary::standard(). Supply
  /// RuleLibrary::standard_with_trains() or a custom XML-loaded library to
  /// change what the blocks can do.
  std::optional<motion::RuleLibrary> rules;
  ElectionTie election_tie = ElectionTie::kFirst;
  MoveTie move_tie = MoveTie::kPreferEnterPath;
  /// Path-freezing geometry; kCanonicalMonotone enables diagonal I/O
  /// tasks (extension, DESIGN.md finding 8).
  PathShape path_shape = PathShape::kAlignedWithOutput;
  bool paper_eq6_init = false;
  /// Fault-tolerance extension; 0 disables (see AlgorithmConfig).
  sim::Ticks ack_timeout = 0;
  /// Iteration cap; 0 = automatic (20 N^2 + 500, per Remark 4's O(N^2)
  /// hop bound). Reaching the cap reports the run as blocked.
  uint32_t max_iterations = 0;
  /// Tier-2 repositioning (see PlannerConfig::allow_repositioning).
  bool allow_repositioning = true;
  /// Per-block tabu capacity for tier-2 detours.
  uint32_t tabu_capacity = 8;
  /// Safety limit for the event loop.
  uint64_t max_events = 500'000'000ULL;
};

struct SessionResult {
  // Terminal status.
  bool complete = false;  // shortest path built (a block reached O)
  bool blocked = false;   // an election found no eligible block
  sim::StopReason stop_reason = sim::StopReason::kQueueEmpty;

  // Algorithm-level counters.
  uint32_t iterations = 0;             ///< Algorithm-1 iterations (epochs)
  uint64_t elections_completed = 0;
  uint64_t hops = 0;                   ///< Remark 4 metric
  uint64_t repositioning_hops = 0;     ///< tier-2 detours among the hops
  uint64_t elementary_moves = 0;       ///< §V.D metric ("55 block moves")
  uint64_t distance_computations = 0;  ///< Remark 2 metric
  uint64_t election_restarts = 0;      ///< fault-tolerance extension

  // Communication counters (Remark 3 metric).
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  /// Per message kind (AlgoMessages' names); a kind never sent is absent.
  std::map<std::string_view, uint64_t> messages_by_kind;

  // Connectivity-oracle counters (move-validation fast path; see
  // lattice/connectivity.hpp and docs/BENCHMARKS.md).
  uint64_t conn_fast_hits = 0;
  uint64_t conn_slow_floods = 0;
  /// Fraction of connectivity probes answered without a flood.
  [[nodiscard]] double conn_fast_rate() const {
    return lat::ConnectivityStats{conn_fast_hits, conn_slow_floods}
        .fast_path_rate();
  }

  // Costs.
  sim::SimTime sim_ticks = 0;
  double wall_seconds = 0.0;
  uint64_t events_processed = 0;
  /// Effective shard count of the world.
  size_t shards = 1;
  /// Events processed per shard, index = shard (empty when shards == 1).
  /// The scalar counters above are the per-shard counters merged via
  /// SimStats::accumulate.
  std::vector<uint64_t> shard_events;
  /// Round-phase wall-clock totals from the engine, at any shard count;
  /// barrier_wait_fraction() is the headline number.
  sim::PhaseBreakdown phases;

  // Outcome.
  size_t block_count = 0;
  int32_t path_cells = 0;  ///< cells on the target shortest path
  std::optional<std::vector<lat::Vec2>> path;  ///< built path, if complete
  /// A block reached O (Algorithm 1's literal termination condition) but
  /// no fully occupied shortest path exists. Cannot occur in the
  /// constructive scenario families (towers, fig10); flagged for honesty
  /// on adversarial inputs where the paper's termination rule is
  /// under-specified.
  bool premature_completion = false;

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;
};

/// One move-trace line, "<epoch> <mover> <application>", as move listeners
/// record it. The differential harness compares these lines across
/// backends, so every recorder formats them here.
[[nodiscard]] std::string move_trace_line(Epoch epoch, lat::BlockId mover,
                                          const motion::RuleApplication& app);

class ReconfigurationSession {
 public:
  /// Validates the scenario (aborts on violations of the paper's
  /// assumptions) and stages it on a fresh simulator.
  ReconfigurationSession(const lat::Scenario& scenario, SessionConfig config);
  /// Every block points at the session's context_, so a session stays
  /// where it was built: neither copied nor moved.
  ReconfigurationSession(const ReconfigurationSession&) = delete;
  ReconfigurationSession& operator=(const ReconfigurationSession&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
  [[nodiscard]] const lat::Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const ReconfigMetrics& metrics() const {
    return shared_.metrics;
  }

  /// Observer invoked after every elected hop (epoch, mover, application).
  void set_move_listener(
      std::function<void(Epoch, lat::BlockId, const motion::RuleApplication&)>
          listener) {
    shared_.move_listener = std::move(listener);
  }

  /// Runs the distributed algorithm to termination (or a limit).
  [[nodiscard]] SessionResult run();

  /// Mid-run churn: places a fresh block at `pos` (must be a free cell
  /// 4-adjacent to an occupied one, so connectivity is preserved), registers
  /// a SmartBlockCode for it, and schedules its start at the current time.
  /// Call only from a sequential context — an external event or between
  /// run()/step_events() calls. The scenario itself is not modified;
  /// SessionResult::block_count keeps reporting the initial count.
  sim::Module& hot_join(lat::BlockId id, lat::Vec2 pos);

  /// Starts the modules (idempotent) and processes at most `max_events`
  /// events — exactly that many at one shard, unless the run halts or
  /// drains first; above one shard the budget lands at a window's edge.
  /// Useful to pause mid-run, e.g. for fault injection:
  ///   session.step_events(2000);
  ///   session.simulator().kill_module(id);
  ///   auto result = session.run();
  sim::StopReason step_events(uint64_t max_events);

  /// One-shot convenience wrapper.
  [[nodiscard]] static SessionResult run_scenario(
      const lat::Scenario& scenario, SessionConfig config = SessionConfig{});

 private:
  void start_if_needed();

  lat::Scenario scenario_;
  SessionConfig config_;
  SessionShared shared_;
  /// The planner, algorithm parameters and shared state every block reads.
  /// Every module points here, so this is declared before simulator_ and
  /// outlives the modules it owns.
  BlockContext context_;
  std::unique_ptr<sim::Simulator> simulator_;
  /// The one immutable planner every block evaluates through, on any
  /// shard thread; each block keeps its own memo.
  std::unique_ptr<MotionPlanner> planner_;
  bool started_ = false;
};

}  // namespace sb::core
