#include "runner/report.hpp"

#include <fstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace sb::runner {

RunRow make_row(const std::string& scenario, const std::string& ruleset,
                uint64_t seed, const core::SessionResult& result) {
  RunRow row;
  row.scenario = scenario;
  row.ruleset = ruleset;
  row.seed = seed;
  row.complete = result.complete;
  row.events = result.events_processed;
  row.wall_seconds = result.wall_seconds;
  row.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.events_processed) / result.wall_seconds
          : 0.0;
  row.hops = result.hops;
  row.elementary_moves = result.elementary_moves;
  row.messages_sent = result.messages_sent;
  row.iterations = result.iterations;
  row.sim_ticks = result.sim_ticks;
  row.block_count = result.block_count;
  row.shards = result.shards;
  row.conn_fast_hits = result.conn_fast_hits;
  row.conn_slow_floods = result.conn_slow_floods;
  row.shard_events = result.shard_events;
  row.phase_fold_s = static_cast<double>(result.phases.fold_ns) * 1e-9;
  row.phase_integrate_s =
      static_cast<double>(result.phases.integrate_ns) * 1e-9;
  row.phase_decide_s = static_cast<double>(result.phases.decide_ns) * 1e-9;
  row.phase_drain_s = static_cast<double>(result.phases.drain_ns) * 1e-9;
  row.phase_barrier_wait_s =
      static_cast<double>(result.phases.barrier_wait_ns) * 1e-9;
  row.barrier_wait_fraction = result.phases.barrier_wait_fraction();
  row.stop_reason = result.stop_reason;
  return row;
}

namespace {

/// One field's JSON value; `hex` writes an integer as a hex_u64 string.
template <class T>
util::JsonValue field_json(const T& value, bool hex) {
  if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
    util::JsonValue out = util::JsonValue::array();
    for (const uint64_t entry : value) out.push_back(field_json(entry, hex));
    return out;
  } else if constexpr (std::is_enum_v<T>) {
    return util::JsonValue(static_cast<int>(value));
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return hex ? util::JsonValue(util::hex_u64(value)) : util::JsonValue(value);
  } else {
    return util::JsonValue(value);
  }
}

util::JsonValue metric_json(const Accumulator& acc) {
  util::JsonValue out = util::JsonValue::object();
  out["mean"] = util::JsonValue(acc.mean());
  out["min"] = util::JsonValue(acc.min());
  out["max"] = util::JsonValue(acc.max());
  out["stddev"] = util::JsonValue(acc.stddev());
  return out;
}

}  // namespace

util::JsonValue encode_row(const RunRow& row, RowFormat format) {
  const bool wire = format == RowFormat::kWire;
  util::JsonValue out = util::JsonValue::object();
  out["scenario"] = util::JsonValue(row.scenario);
  out["ruleset"] = util::JsonValue(row.ruleset);
  out["seed"] = util::JsonValue(util::hex_u64(row.seed));
  visit_row_fields(row, [&](std::string_view key, const auto& value,
                            unsigned flags) {
    if (!wire) {
      if ((flags & row_field::kWireOnly) ||
          ((flags & row_field::kShardedOnly) && row.shards < 2)) {
        return;
      }
      if constexpr (requires { value.empty(); }) {
        if (value.empty()) return;
      }
      if (key == "block_count") key = "blocks";  // the report's spelling
    }
    util::JsonValue& object =
        (flags & row_field::kPhase) ? out["phase_seconds"] : out;
    object[key] = field_json(value, wire && (flags & row_field::kHexOnWire));
  });
  return out;
}

BenchReport::BenchReport(std::string generator)
    : generator_(std::move(generator)) {}

std::vector<GroupSummary> BenchReport::summarize() const {
  std::vector<GroupSummary> groups;
  for (const RunRow& row : rows_) {
    GroupSummary* group = nullptr;
    for (GroupSummary& g : groups) {
      if (g.scenario == row.scenario && g.ruleset == row.ruleset) group = &g;
    }
    if (group == nullptr) {
      group = &groups.emplace_back();
      group->scenario = row.scenario;
      group->ruleset = row.ruleset;
      group->shards = row.shards;
    }
    ++group->runs;
    if (row.complete) ++group->completed;
    group->events_per_sec.add(row.events_per_sec);
    group->wall_seconds.add(row.wall_seconds);
    group->hops.add(static_cast<double>(row.hops));
    group->elementary_moves.add(static_cast<double>(row.elementary_moves));
    group->messages_sent.add(static_cast<double>(row.messages_sent));
    group->conn_fast_rate.add(row.conn_fast_rate());
    group->shard_imbalance.add(row.shard_imbalance());
    group->barrier_wait_fraction.add(row.barrier_wait_fraction);
  }
  return groups;
}

util::JsonValue BenchReport::to_json() const {
  util::JsonValue root = util::JsonValue::object();
  root["schema"] = util::JsonValue("sb-bench-sim/v1");
  root["generator"] = util::JsonValue(generator_);
  root["master_seed"] = util::JsonValue(util::hex_u64(master_seed_));
  root["threads"] = util::JsonValue(threads_);
  if (cores_ > 0) root["cores"] = util::JsonValue(cores_);

  util::JsonValue runs = util::JsonValue::array();
  for (const RunRow& row : rows_) {
    runs.push_back(encode_row(row, RowFormat::kReport));
  }
  root["runs"] = std::move(runs);

  util::JsonValue summary = util::JsonValue::array();
  for (const GroupSummary& group : summarize()) {
    util::JsonValue g = util::JsonValue::object();
    g["scenario"] = util::JsonValue(group.scenario);
    g["ruleset"] = util::JsonValue(group.ruleset);
    g["runs"] = util::JsonValue(group.runs);
    g["completed"] = util::JsonValue(group.completed);
    g["shards"] = util::JsonValue(group.shards);
    g["events_per_sec"] = metric_json(group.events_per_sec);
    g["wall_seconds"] = metric_json(group.wall_seconds);
    g["hops"] = metric_json(group.hops);
    g["elementary_moves"] = metric_json(group.elementary_moves);
    g["messages_sent"] = metric_json(group.messages_sent);
    g["conn_fast_rate"] = metric_json(group.conn_fast_rate);
    g["shard_imbalance"] = metric_json(group.shard_imbalance);
    g["barrier_wait_fraction"] = metric_json(group.barrier_wait_fraction);
    summary.push_back(std::move(g));
  }
  root["summary"] = std::move(summary);
  return root;
}

void BenchReport::scrub_timing() {
  for (RunRow& row : rows_) {
    visit_row_fields(row, [](std::string_view, auto& value, unsigned flags) {
      if (flags & row_field::kWallClock) value = {};
    });
  }
}

void BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << to_json_text();
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("failed writing report to '" + path + "'");
  }
}

}  // namespace sb::runner
