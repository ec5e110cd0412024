#include "runner/serialize.hpp"

#include <stdexcept>
#include <string>

namespace sb::runner {

using util::get_bool;
using util::get_field;
using util::get_int;
using util::get_number;
using util::get_size;
using util::get_string;
using util::get_u64;
using util::JsonValue;

JsonValue row_to_json(const RunRow& row) {
  JsonValue out = JsonValue::object();
  out["scenario"] = JsonValue(row.scenario);
  out["ruleset"] = JsonValue(row.ruleset);
  // 64-bit counters go as hex strings: seeds routinely use all 64 bits, and
  // giant sweeps can push event counts past double's 2^53 exact range.
  out["seed"] = JsonValue(util::hex_u64(row.seed));
  out["complete"] = JsonValue(row.complete);
  out["events"] = JsonValue(util::hex_u64(row.events));
  out["events_per_sec"] = JsonValue(row.events_per_sec);
  out["wall_seconds"] = JsonValue(row.wall_seconds);
  out["hops"] = JsonValue(util::hex_u64(row.hops));
  out["elementary_moves"] = JsonValue(util::hex_u64(row.elementary_moves));
  out["messages_sent"] = JsonValue(util::hex_u64(row.messages_sent));
  out["iterations"] = JsonValue(row.iterations);
  out["sim_ticks"] = JsonValue(util::hex_u64(row.sim_ticks));
  out["block_count"] = JsonValue(row.block_count);
  out["shards"] = JsonValue(row.shards);
  out["conn_fast_hits"] = JsonValue(util::hex_u64(row.conn_fast_hits));
  out["conn_slow_floods"] = JsonValue(util::hex_u64(row.conn_slow_floods));
  JsonValue shard_events = JsonValue::array();
  for (const uint64_t events : row.shard_events) {
    shard_events.push_back(JsonValue(util::hex_u64(events)));
  }
  out["shard_events"] = std::move(shard_events);
  JsonValue phases = JsonValue::object();
  phases["fold_s"] = JsonValue(row.phase_fold_s);
  phases["integrate_s"] = JsonValue(row.phase_integrate_s);
  phases["decide_s"] = JsonValue(row.phase_decide_s);
  phases["drain_s"] = JsonValue(row.phase_drain_s);
  phases["barrier_wait_s"] = JsonValue(row.phase_barrier_wait_s);
  out["phase_seconds"] = std::move(phases);
  out["barrier_wait_fraction"] = JsonValue(row.barrier_wait_fraction);
  out["stop_reason"] = JsonValue(static_cast<int>(row.stop_reason));
  return out;
}

RunRow row_from_json(const JsonValue& json) {
  RunRow row;
  row.scenario = get_string(json, "scenario");
  row.ruleset = get_string(json, "ruleset");
  row.seed = get_u64(json, "seed");
  row.complete = get_bool(json, "complete");
  row.events = get_u64(json, "events");
  row.events_per_sec = get_number(json, "events_per_sec");
  row.wall_seconds = get_number(json, "wall_seconds");
  row.hops = get_u64(json, "hops");
  row.elementary_moves = get_u64(json, "elementary_moves");
  row.messages_sent = get_u64(json, "messages_sent");
  row.iterations =
      static_cast<uint32_t>(get_int(json, "iterations", 0, UINT32_MAX));
  row.sim_ticks = get_u64(json, "sim_ticks");
  row.block_count = get_size(json, "block_count");
  row.shards = get_size(json, "shards");
  row.conn_fast_hits = get_u64(json, "conn_fast_hits");
  row.conn_slow_floods = get_u64(json, "conn_slow_floods");
  for (const JsonValue& events :
       get_field(json, "shard_events", JsonValue::Kind::kArray).as_array()) {
    if (events.kind() != JsonValue::Kind::kString) {
      throw std::runtime_error("wire shard_events entries must be strings");
    }
    row.shard_events.push_back(util::parse_u64(events.as_string()));
  }
  const JsonValue& phases =
      get_field(json, "phase_seconds", JsonValue::Kind::kObject);
  row.phase_fold_s = get_number(phases, "fold_s");
  row.phase_integrate_s = get_number(phases, "integrate_s");
  row.phase_decide_s = get_number(phases, "decide_s");
  row.phase_drain_s = get_number(phases, "drain_s");
  row.phase_barrier_wait_s = get_number(phases, "barrier_wait_s");
  row.barrier_wait_fraction = get_number(json, "barrier_wait_fraction");
  row.stop_reason = static_cast<sim::StopReason>(
      get_int(json, "stop_reason",
              static_cast<int64_t>(sim::StopReason::kQueueEmpty),
              static_cast<int64_t>(sim::StopReason::kHalted)));
  return row;
}

JsonValue options_to_json(const SweepCliOptions& options) {
  JsonValue out = JsonValue::object();
  JsonValue scenarios = JsonValue::array();
  for (const std::string& name : options.scenarios) {
    scenarios.push_back(JsonValue(name));
  }
  out["scenarios"] = std::move(scenarios);
  out["seed_count"] = JsonValue(options.seed_count);
  out["master_seed"] = JsonValue(util::hex_u64(options.master_seed));
  out["latency"] = JsonValue(options.latency);
  out["max_events"] = JsonValue(util::hex_u64(options.max_events));
  out["shards"] = JsonValue(options.shards);
  out["shard_threads"] = JsonValue(options.shard_threads);
  // Not grid identity, but the report header records it — a resumed
  // coordinator rebuilding a report from the journal must reproduce it.
  out["threads"] = JsonValue(options.threads);
  return out;
}

SweepCliOptions options_from_json(const JsonValue& json) {
  SweepCliOptions options;
  for (const JsonValue& name :
       get_field(json, "scenarios", JsonValue::Kind::kArray).as_array()) {
    if (name.kind() != JsonValue::Kind::kString) {
      throw std::runtime_error("wire scenario list entries must be strings");
    }
    options.scenarios.push_back(name.as_string());
  }
  options.seed_count = get_size(json, "seed_count");
  options.master_seed = get_u64(json, "master_seed");
  options.latency = get_string(json, "latency");
  options.max_events = get_u64(json, "max_events");
  options.shards = get_size(json, "shards");
  options.shard_threads = get_size(json, "shard_threads");
  options.threads = get_size(json, "threads");
  validate_sweep_options(options);
  return options;
}

}  // namespace sb::runner
