#pragma once
// Differential harness: runs one FuzzCase through every execution backend
// and cross-checks the runs against each other and the invariant oracle.
//
// Backends and what is compared (docs/TESTING.md has the full rationale):
//
//   A  one shard    shards=1                 the reference execution
//   B  sharded      shards=alt_shards, t=1   window schedule, one thread
//   C  sharded-mt   shards=alt_shards, t>1   same schedule, parallel drain
//
//   B vs C   byte-identical event traces, move traces, and full results —
//            thread count must never be observable (the engine's hardest
//            determinism contract).
//   A vs B   move traces plus schedule-independent outcome digest — only
//            for `comparable` cases (kLowestId ties, no timeouts, fixed
//            latency or no churn; see FuzzCase::comparable) that did not
//            hit the event budget (above one shard, budgets land at window
//            granularity).
//   dist     optional (DiffOptions::run_dist): the same scenario swept
//            through an in-process coordinator/worker fleet; the merged
//            report must byte-match the local thread-pool backend's.
//
// Every backend run also carries the InvariantOracle; any recorded
// violation fails the case regardless of agreement between backends.

#include <string>
#include <vector>

#include "check/fuzz_case.hpp"
#include "check/oracle.hpp"

namespace sb::check {

struct DiffOptions {
  /// Shard count of backends B and C (clamped to surface width by the sim).
  size_t alt_shards = 4;
  /// Worker threads of backend C.
  size_t alt_threads = 3;
  /// Also differential-test the distributed sweep backend (skipped for
  /// churn cases, which the sweep grid cannot express).
  bool run_dist = false;
  /// Fleet size of the dist leg. More than one worker races the pull
  /// scheduling, proving merge-order independence on hostile scenarios.
  size_t dist_workers = 1;
  /// When non-empty, the dist leg forks/execs this sweep_worker binary
  /// instead of running workers in-process — the full wire path, process
  /// boundary included (the corpus dist smoke test uses this).
  std::string dist_worker_binary;
  /// Coordinator total-timeout backstop for the dist leg. The default suits
  /// optimized builds; sanitizer builds replaying heavy corpus cases need
  /// minutes per run and must raise it or every case reads as a timeout.
  size_t dist_total_timeout_ms = 60000;
  OracleOptions oracle;
};

/// One backend execution of the case.
struct BackendRun {
  std::string name;
  core::SessionResult result;
  /// One line per elected hop: "epoch block rule@anchor from->to".
  std::vector<std::string> move_trace;
  /// Simulator event trace (Simulator::event_trace).
  std::vector<std::string> event_trace;
  /// Canonical final occupancy, one "id@x,y" per line in id order.
  std::string final_blocks;
  std::vector<std::string> violations;
  uint64_t oracle_checks = 0;
};

struct DiffOutcome {
  std::string case_description;
  std::vector<BackendRun> runs;
  /// Cross-backend mismatches; empty on agreement.
  std::vector<std::string> divergences;
  /// Non-failing observations (event budget hit, comparison demotions).
  std::vector<std::string> notes;

  /// No divergences and no invariant violations in any run.
  [[nodiscard]] bool ok() const;
  /// Human-readable report: verdict, per-backend outcome, first differing
  /// trace line, invariant violations (the --replay output).
  [[nodiscard]] std::string report() const;
};

/// Executes one backend at `shards` shards. Exposed for the corpus
/// replay test; most callers want run_case.
[[nodiscard]] BackendRun run_backend(const FuzzCase& fuzz_case,
                                     std::string name, size_t shards,
                                     size_t threads,
                                     const OracleOptions& oracle_options = {});

/// The dist leg alone: sweeps the case's scenario through the local
/// thread-pool backend and a coordinator/worker fleet (in-process workers,
/// or forked `options.dist_worker_binary` subprocesses) and byte-compares
/// the timing-scrubbed reports. Returns a divergence description, or "" on
/// agreement. Exposed for the corpus dist smoke test; run_case calls it for
/// churn-free cases when `options.run_dist`.
[[nodiscard]] std::string compare_dist_backend(const FuzzCase& fuzz_case,
                                               const DiffOptions& options = {});

/// Runs the case through all backends and populates divergences.
[[nodiscard]] DiffOutcome run_case(const FuzzCase& fuzz_case,
                                   const DiffOptions& options = {});

}  // namespace sb::check
