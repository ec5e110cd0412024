#pragma once
// Machine-readable bench/sweep reports (the BENCH_sim.json schema).
//
// One flat RunRow per executed run; BenchReport groups rows by
// (scenario, ruleset), aggregates each metric with util/stats Accumulators,
// and serializes to the stable JSON schema that benches, examples, the
// sweep tool, and the CI perf gate all consume (docs/BENCHMARKS.md).
// visit_row_fields lists a row's fields once; the report's run entries and
// the dist wire rows are both written from it by encode_row.

#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/grid.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

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
  /// shard count (reports print it only above one shard).
  double phase_fold_s = 0.0;
  double phase_integrate_s = 0.0;
  double phase_decide_s = 0.0;
  double phase_drain_s = 0.0;
  double phase_barrier_wait_s = 0.0;
  /// Worker time blocked at the window rendezvous as a share of total
  /// worker time — the time counterpart of shard_imbalance (0 = never
  /// waited, 0.75 = three quarters of worker time spent at barriers).
  double barrier_wait_fraction = 0.0;
  /// Why the run stopped. Travels over the dist wire so remote front ends
  /// can apply the same exit-code policy as local ones; not part of the
  /// BENCH_sim.json schema.
  sim::StopReason stop_reason = sim::StopReason::kQueueEmpty;

  bool operator==(const RunRow&) const = default;

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

/// How a field differs between its uses (the flags of visit_row_fields).
namespace row_field {
enum Flags : unsigned {
  kPlain = 0,
  kHexOnWire = 1u << 0,    ///< u64 counter: a hex string on the wire
  kWallClock = 1u << 1,    ///< wall-clock-derived: scrub_timing() zeroes it
  kShardedOnly = 1u << 2,  ///< in the report only above one shard
  kPhase = 1u << 3,        ///< inside the row's "phase_seconds" object
  kWireOnly = 1u << 4,     ///< not in the BENCH_sim.json schema
};
}  // namespace row_field

/// The fields of a row after its identity (scenario, ruleset, seed), in
/// report order: calls fn(key, member, flags) once for each. encode_row,
/// row_from_json (runner/serialize) and BenchReport::scrub_timing() walk
/// this list, so a new metric is a member, one line here and one line in
/// make_row. `Row` is RunRow or const RunRow.
template <class Row, class Fn>
void visit_row_fields(Row& row, Fn&& fn) {
  using namespace row_field;
  constexpr unsigned kPhaseTime = kPhase | kShardedOnly | kWallClock;
  fn("complete", row.complete, kPlain);
  fn("block_count", row.block_count, kPlain);  // "blocks" in the report
  fn("events", row.events, kHexOnWire);
  fn("events_per_sec", row.events_per_sec, kWallClock);
  fn("wall_seconds", row.wall_seconds, kWallClock);
  fn("hops", row.hops, kHexOnWire);
  fn("elementary_moves", row.elementary_moves, kHexOnWire);
  fn("messages_sent", row.messages_sent, kHexOnWire);
  fn("iterations", row.iterations, kPlain);
  fn("sim_ticks", row.sim_ticks, kHexOnWire);
  fn("shards", row.shards, kPlain);
  fn("conn_fast_hits", row.conn_fast_hits, kHexOnWire);
  fn("conn_slow_floods", row.conn_slow_floods, kHexOnWire);
  fn("shard_events", row.shard_events, kHexOnWire);  // report: if not empty
  fn("fold_s", row.phase_fold_s, kPhaseTime);
  fn("integrate_s", row.phase_integrate_s, kPhaseTime);
  fn("decide_s", row.phase_decide_s, kPhaseTime);
  fn("drain_s", row.phase_drain_s, kPhaseTime);
  fn("barrier_wait_s", row.phase_barrier_wait_s, kPhaseTime);
  fn("barrier_wait_fraction", row.barrier_wait_fraction,
     kShardedOnly | kWallClock);
  fn("stop_reason", row.stop_reason, kWireOnly);
}

/// Where a row is written: a BENCH_sim.json run entry, or a dist wire and
/// journal row (every field, u64 counters as hex strings).
enum class RowFormat { kReport, kWire };

/// The one RunRow writer: scenario, ruleset and seed (hex), then the
/// fields of visit_row_fields as `format` takes them. The wire form's
/// inverse is row_from_json (runner/serialize).
[[nodiscard]] util::JsonValue encode_row(const RunRow& row, RowFormat format);

/// Flattens a session outcome into a report row.
[[nodiscard]] RunRow make_row(const std::string& scenario,
                              const std::string& ruleset, uint64_t seed,
                              const core::SessionResult& result);

/// Per-(scenario, ruleset) aggregate: one Accumulator per summary metric
/// over the group's runs.
struct GroupSummary {
  std::string scenario;
  std::string ruleset;
  size_t runs = 0;
  size_t completed = 0;
  /// Shard count of the group's runs (groups never mix shard counts in
  /// practice; the first row's value is reported).
  size_t shards = 1;
  Accumulator events_per_sec;
  Accumulator wall_seconds;
  Accumulator hops;
  Accumulator elementary_moves;
  Accumulator messages_sent;
  /// Per-run fast-path hit rate of the connectivity oracle.
  Accumulator conn_fast_rate;
  /// Per-run busiest-shard/mean load ratio (RunRow::shard_imbalance);
  /// all-zero for one-shard groups.
  Accumulator shard_imbalance;
  /// Per-run barrier-wait share of worker time (RunRow::
  /// barrier_wait_fraction); all-zero for scrubbed groups, and only timer
  /// overhead where one worker runs every rendezvous inline.
  Accumulator barrier_wait_fraction;
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

  /// Zeroes the wall-clock-derived fields (row_field::kWallClock) of every
  /// row, making to_json_text() a pure function of the grid. The
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
