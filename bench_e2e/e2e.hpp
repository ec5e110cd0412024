#pragma once
// bench_e2e: time to converge, sweep throughput and set-up cost of the sb
// library on four workloads, with per-layer numbers taken from outside.
//
// The driver only calls the library's public functions and reads counters
// the library already exposes; every per-layer time is measured by wrapping
// the driver's own calls (README.md has the metric catalogue). Three parts:
//   workloads.cpp  the workloads, one measured unit of each, and the checks;
//   layers.cpp     per-layer replays of single kernels on a workload's world;
//   bench_e2e.cpp  command line, the per-workload loop, reporting, and the
//                  all / --sets / --smoke orchestration.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "runner/report.hpp"
#include "util/pool.hpp"

namespace sb::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- metric catalogue ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of the library sees; measured with tracing off.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"runs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// One number per layer boundary the driver crosses (README.md says which
/// end-to-end metric each should move, on which workload). Reported with
/// --trace 1; 0 where the workload does not exercise the layer.
inline constexpr MetricDef kPerLayer[] = {
    {"lattice.generate_s", "s"},
    {"lattice.conn_fast_hits", "count"},
    {"lattice.conn_slow_floods", "count"},
    {"lattice.conn_fast_rate", "ratio"},
    {"lattice.row_scalar_ns_per_cell", "ns"},
    {"lattice.row_wide_ns_per_cell", "ns"},
    {"lattice.batch_verdict_ns", "ns"},
    {"lattice.local_check_ns", "ns"},
    {"core.session_build_s", "s"},
    {"core.epochs", "count"},
    {"core.hops", "count"},
    {"core.distance_computations", "count"},
    {"core.messages_per_epoch", "count"},
    {"core.msgs.Activate", "count"},
    {"core.msgs.Ack", "count"},
    {"core.msgs.MoveDone", "count"},
    {"core.msgs.Select", "count"},
    {"core.msgs.ElectedAck", "count"},
    {"core.msgs.SonNotify", "count"},
    {"core.epoch_ms_p50", "ms"},
    {"core.epoch_ms_tail", "ms"},
    {"core.epoch_ms_tail_pct", "pct"},
    {"core.epoch_samples", "count"},
    {"core.planner_eval_cold_ns", "ns"},
    {"core.planner_eval_warm_ns", "ns"},
    {"core.planner_memo_hit_rate", "ratio"},
    {"msg.pool_allocs", "count"},
    {"msg.pool_hit_rate", "ratio"},
    {"msg.pool_slabs", "count"},
    {"msg.alloc_free_ns", "ns"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.sim_ticks", "ticks"},
    {"sim.pending_events_max", "count"},
    {"sim.queue_push_pop_ns", "ns"},
    {"sim.shard.windows", "count"},
    {"sim.shard.events_per_window", "count"},
    {"sim.shard.window_us", "us"},
    {"sim.shard.fold_s", "s"},
    {"sim.shard.integrate_s", "s"},
    {"sim.shard.decide_s", "s"},
    {"sim.shard.drain_s", "s"},
    {"sim.shard.barrier_wait_s", "s"},
    {"sim.shard.barrier_wait_frac", "ratio"},
    {"sim.shard.imbalance", "ratio"},
    {"sim.shard.speedup", "ratio"},
    {"runner.run_busy_s", "s"},
    {"runner.pool_efficiency", "ratio"},
    {"runner.run_s_p50", "s"},
    {"runner.run_s_tail", "s"},
    {"runner.run_s_tail_pct", "pct"},
    {"runner.report_s", "s"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.trace_overhead", "ratio"},
};

/// Values by catalogued name.
class Metrics {
 public:
  /// Aborts on a name outside the catalogue or a non-finite value.
  void set(std::string_view name, double value);
  [[nodiscard]] double get(std::string_view name) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

// -- statistics ---------------------------------------------------------------

[[nodiscard]] double median(const std::vector<double>& values);

/// The highest percentile with ten samples beyond it, 100 * (1 - 10/n);
/// with fewer than 20 samples (where that would fall below the median),
/// the maximum, reported as percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
[[nodiscard]] Tail tail(const std::vector<double>& values);

/// FNV-1a over 64-bit words, for the determinism digests.
class Digest {
 public:
  void add(uint64_t word);
  void add(std::string_view bytes);
  [[nodiscard]] uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

// -- workloads ----------------------------------------------------------------

enum class WorkloadKind { kSession, kSweep };

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kSession;
  /// Session workloads: the scenario (lat::resolve_scenario vocabulary).
  std::string scenario;
  size_t shards = 1;
  /// Algorithm-1 epoch cap (SessionConfig::max_iterations); 0 runs to
  /// convergence.
  uint32_t epoch_cap = 0;
  /// Sweep workloads: the grid.
  std::vector<std::string> sweep_scenarios;
  size_t sweep_seeds = 0;

  [[nodiscard]] size_t sweep_runs() const {
    return sweep_scenarios.size() * sweep_seeds;
  }
};

/// The four workloads in their measured order; `smoke` shrinks each to a
/// toy size with the same code path.
[[nodiscard]] std::vector<Workload> make_workloads(bool smoke);

/// Threads of the sweep workload: one. Every busy thread is one more core
/// whose neighbours' load the sweep's wall time reads: over eight
/// interleaved runs on a shared four-core box the sweep time spread 10 %
/// between runs with three threads, 7 % with two and 4 % with one, and two
/// threads reached 15 % over ten runs in a busier hour.
inline constexpr size_t kSweepWorkers = 1;

/// One ReconfigurationSession of a session workload: set up, run, checked.
struct SessionUnit {
  double generate_s = 0.0;  ///< lat::resolve_scenario
  double build_s = 0.0;     ///< ReconfigurationSession constructor
  double run_s = 0.0;       ///< ReconfigurationSession::run
  core::SessionResult result;
  /// Host time of each elected hop since the previous one (the first since
  /// run() began), from the move listener.
  std::vector<double> epoch_ms;
  /// Most pending events seen: sampled at each hop, and with
  /// UnitOptions::sample_queue_depth also between event chunks.
  size_t pending_max = 0;
  /// util::pool_counters() delta of the calling thread across run().
  util::PoolCounters pool;
  /// First failed check; empty when every check passed.
  std::string failure;
  lat::Scenario scenario;
  /// Kept only on request (the layer replays need the final world).
  std::unique_ptr<core::ReconfigurationSession> session;
};

struct UnitOptions {
  /// Overrides the workload's shard count (the sharded workloads' classic
  /// reference runs pass 1).
  size_t shards = 1;
  bool keep_session = false;
  /// Classic engine only: drive the run in event chunks through
  /// ReconfigurationSession::step_events and sample the queue between them
  /// (at a hop the queue is nearly empty, so hops alone under-read it).
  bool sample_queue_depth = false;
};

[[nodiscard]] SessionUnit run_session_unit(const Workload& workload,
                                           uint64_t seed,
                                           const UnitOptions& options);

/// One whole sweep grid through runner::SweepRunner.
struct SweepUnit {
  double setup_s = 0.0;  ///< grid expansion
  double run_s = 0.0;    ///< until every row is back
  std::vector<runner::RunRow> rows;
  /// Digest of the timing-scrubbed report.
  uint64_t report_digest = 0;
  size_t failed_rows = 0;
  std::string failure;
};

[[nodiscard]] SweepUnit run_sweep_unit(const Workload& workload,
                                       uint64_t seed);

/// The sweep's report (runner::assemble_report).
[[nodiscard]] runner::BenchReport sweep_report(
    uint64_t seed, const std::vector<runner::RunRow>& rows);

// -- layer replays ------------------------------------------------------------
//
// Each timed replay repeats its pass for at least `min_seconds` (and three
// passes) and reports the median pass.

/// Row kernels, batched verdicts and local checks over every row or block of
/// the session's final grid, and a MotionPlanner cold/warm pass over every
/// block of its world.
void replay_lattice_and_planner(core::ReconfigurationSession& session,
                                double min_seconds, Metrics& out);

/// pool_alloc/pool_free pairs at the election messages' sizes.
void replay_pool(double min_seconds, Metrics& out);

/// BinaryHeapEventQueue pop+push pairs at a fixed depth.
void replay_queue(size_t depth, double min_seconds, Metrics& out);

}  // namespace sb::e2e
