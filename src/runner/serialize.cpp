#include "runner/serialize.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/fmt.hpp"

namespace sb::runner {

using util::get_bool;
using util::get_field;
using util::get_int;
using util::get_number;
using util::get_size;
using util::get_string;
using util::get_u64;
using util::JsonValue;

namespace {

/// Reads one field of visit_row_fields in its wire form.
template <class T>
void read_field(const JsonValue& object, std::string_view key, bool hex,
                T& value) {
  if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
    for (const JsonValue& entry :
         get_field(object, key, JsonValue::Kind::kArray).as_array()) {
      if (entry.kind() != JsonValue::Kind::kString) {
        throw std::runtime_error(fmt("wire {} entries must be strings", key));
      }
      value.push_back(util::parse_u64(entry.as_string()));
    }
  } else if constexpr (std::is_same_v<T, sim::StopReason>) {
    value = static_cast<T>(
        get_int(object, key, static_cast<int64_t>(T::kQueueEmpty),
                static_cast<int64_t>(T::kHalted)));
  } else if constexpr (std::is_same_v<T, bool>) {
    value = get_bool(object, key);
  } else if constexpr (std::is_floating_point_v<T>) {
    value = get_number(object, key);
  } else if (hex) {
    value = static_cast<T>(get_u64(object, key));
  } else {
    value = static_cast<T>(get_int(
        object, key, 0,
        std::min<uint64_t>(std::numeric_limits<T>::max(),
                           util::kMaxExactJsonInt)));
  }
}

}  // namespace

RunRow row_from_json(const JsonValue& json) {
  RunRow row;
  row.scenario = get_string(json, "scenario");
  row.ruleset = get_string(json, "ruleset");
  row.seed = get_u64(json, "seed");
  const JsonValue& phases =
      get_field(json, "phase_seconds", JsonValue::Kind::kObject);
  visit_row_fields(row, [&](std::string_view key, auto& value, unsigned flags) {
    read_field((flags & row_field::kPhase) ? phases : json, key,
               (flags & row_field::kHexOnWire) != 0, value);
  });
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
