#pragma once
// Machine-readable bench/sweep reports (the BENCH_sim.json schema).
//
// One flat RunRow per executed run; BenchReport groups rows by
// (scenario, ruleset), aggregates each metric with util/stats Accumulators,
// and serializes to the stable JSON schema that benches, examples, the
// sweep tool, and the CI perf gate all consume (docs/BENCHMARKS.md).

#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/grid.hpp"
#include "util/json.hpp"

namespace sb::runner {

/// One executed run, flattened for reporting.
struct RunRow {
  std::string scenario;  ///< scenario label, e.g. "tower16" or "flood-1024"
  std::string ruleset = "standard";
  uint64_t seed = 0;
  bool complete = false;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
  uint64_t hops = 0;
  uint64_t elementary_moves = 0;
  uint64_t messages_sent = 0;
  uint32_t iterations = 0;
  uint64_t sim_ticks = 0;
  size_t block_count = 0;
  /// Effective shard count of the run's world (the scalar metrics are the
  /// per-shard counters merged — docs/BENCHMARKS.md).
  size_t shards = 1;
  /// Connectivity-oracle split on the move-validation path: probes answered
  /// by the O(1) local rule vs. full floods (docs/BENCHMARKS.md).
  uint64_t conn_fast_hits = 0;
  uint64_t conn_slow_floods = 0;
  /// Cumulative events per shard (empty when shards == 1): the raw
  /// material for diagnosing pathological shard maps.
  std::vector<uint64_t> shard_events;
  /// Engine round-phase breakdown in seconds of summed worker time, at any
  /// shard count (reports print it only above one shard). Wall-clock-
  /// derived, so scrub_timing() zeroes all five along with
  /// barrier_wait_fraction.
  double phase_fold_s = 0.0;
  double phase_integrate_s = 0.0;
  double phase_decide_s = 0.0;
  double phase_drain_s = 0.0;
  double phase_barrier_wait_s = 0.0;
  /// Worker time blocked at the window rendezvous as a share of total
  /// worker time — the time counterpart of shard_imbalance (0 = never
  /// waited, 0.75 = three quarters of worker time spent at barriers).
  double barrier_wait_fraction = 0.0;
  /// Why the run stopped. Travels over the dist wire (runner/serialize) so
  /// remote front ends can apply the same exit-code policy as local ones;
  /// not part of the BENCH_sim.json schema.
  sim::StopReason stop_reason = sim::StopReason::kQueueEmpty;

  [[nodiscard]] double conn_fast_rate() const {
    return lat::ConnectivityStats{conn_fast_hits, conn_slow_floods}
        .fast_path_rate();
  }

  /// Busiest-shard load relative to the mean (1.0 = perfectly balanced,
  /// S = one shard did all the work of S). 0 when not sharded.
  [[nodiscard]] double shard_imbalance() const {
    if (shard_events.size() < 2) return 0.0;
    uint64_t total = 0;
    uint64_t busiest = 0;
    for (const uint64_t events : shard_events) {
      total += events;
      if (events > busiest) busiest = events;
    }
    if (total == 0) return 0.0;
    return static_cast<double>(busiest) * static_cast<double>(
               shard_events.size()) / static_cast<double>(total);
  }
};

/// Flattens a session outcome into a report row.
[[nodiscard]] RunRow make_row(const std::string& scenario,
                              const std::string& ruleset, uint64_t seed,
                              const core::SessionResult& result);

/// Per-(scenario, ruleset) aggregate of a metric.
struct MetricSummary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

struct GroupSummary {
  std::string scenario;
  std::string ruleset;
  size_t runs = 0;
  size_t completed = 0;
  /// Shard count of the group's runs (groups never mix shard counts in
  /// practice; the first row's value is reported).
  size_t shards = 1;
  MetricSummary events_per_sec;
  MetricSummary wall_seconds;
  MetricSummary hops;
  MetricSummary elementary_moves;
  MetricSummary messages_sent;
  /// Per-run fast-path hit rate of the connectivity oracle.
  MetricSummary conn_fast_rate;
  /// Per-run busiest-shard/mean load ratio (RunRow::shard_imbalance);
  /// all-zero for one-shard groups.
  MetricSummary shard_imbalance;
  /// Per-run barrier-wait share of worker time (RunRow::
  /// barrier_wait_fraction); all-zero for scrubbed groups, and only timer
  /// overhead where one worker runs every rendezvous inline.
  MetricSummary barrier_wait_fraction;
};

class BenchReport {
 public:
  /// `generator` names the producing binary (e.g. "bench_sim_throughput").
  explicit BenchReport(std::string generator);

  void set_master_seed(uint64_t seed) { master_seed_ = seed; }
  void set_threads(size_t threads) { threads_ = threads; }
  /// Physical core count of the measuring host; recorded in the JSON so
  /// consumers (tools/perf_check's shard-scaling gate) can tell whether a
  /// parallel-speedup claim was measurable on that box. 0 = not recorded.
  void set_cores(size_t cores) { cores_ = cores; }

  void add_row(RunRow row) { rows_.push_back(std::move(row)); }

  [[nodiscard]] const std::vector<RunRow>& rows() const { return rows_; }

  /// Zeroes the wall-clock-derived fields (wall_seconds, events_per_sec,
  /// the phase breakdown and barrier_wait_fraction) of every row, making
  /// to_json_text() a pure function of the grid. The
  /// dist-vs-local byte-identity checks compare reports scrubbed on both
  /// sides (docs/BENCHMARKS.md).
  void scrub_timing();

  /// Aggregates rows into per-(scenario, ruleset) groups, in first-seen
  /// order (deterministic for a fixed row order).
  [[nodiscard]] std::vector<GroupSummary> summarize() const;

  /// The BENCH_sim.json schema ("sb-bench-sim/v1"); see docs/BENCHMARKS.md.
  [[nodiscard]] util::JsonValue to_json() const;

  /// Pretty-printed to_json(); suitable for committing as a baseline.
  [[nodiscard]] std::string to_json_text() const {
    return to_json().dump(2);
  }

  /// Writes to_json_text() to a file; throws std::runtime_error on I/O
  /// failure (unwritable path, full disk) so CLIs can report it and exit
  /// nonzero instead of aborting.
  void write_file(const std::string& path) const;

 private:
  std::string generator_;
  uint64_t master_seed_ = 0;
  size_t threads_ = 1;
  size_t cores_ = 0;
  std::vector<RunRow> rows_;
};

}  // namespace sb::runner
