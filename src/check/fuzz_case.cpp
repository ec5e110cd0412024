#include "check/fuzz_case.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace sb::check {

namespace {

constexpr const char* kFormatTag = "sb-fuzz-case-v1";

core::ElectionTie tie_from_label(const std::string& label) {
  if (label == "first") return core::ElectionTie::kFirst;
  if (label == "lowest-id") return core::ElectionTie::kLowestId;
  if (label == "random") return core::ElectionTie::kRandom;
  throw std::runtime_error(fmt("unknown election_tie '{}'", label));
}

std::string_view tie_label(core::ElectionTie tie) {
  switch (tie) {
    case core::ElectionTie::kFirst: return "first";
    case core::ElectionTie::kLowestId: return "lowest-id";
    case core::ElectionTie::kRandom: return "random";
  }
  return "?";
}

const util::JsonValue& require(const util::JsonValue& json,
                               std::string_view key) {
  const util::JsonValue* value = json.find(key);
  if (value == nullptr) {
    throw std::runtime_error(fmt("fuzz case missing field '{}'", key));
  }
  return *value;
}

}  // namespace

std::string_view to_string(ChurnOp::Kind kind) {
  return kind == ChurnOp::Kind::kKill ? "kill" : "join";
}

core::SessionConfig FuzzCase::session_config() const {
  core::SessionConfig config;
  if (latency_kind == "fixed") {
    config.sim.latency = msg::LatencyModel::fixed(latency_lo);
  } else if (latency_kind == "uniform") {
    config.sim.latency = msg::LatencyModel::uniform(latency_lo, latency_hi);
  } else {
    throw std::runtime_error(fmt("unknown latency kind '{}'", latency_kind));
  }
  config.sim.motion_duration = motion_duration;
  config.election_tie = election_tie;
  config.ack_timeout = ack_timeout;
  config.max_iterations = max_iterations;
  config.max_events = max_events;
  return config;
}

std::string FuzzCase::describe() const {
  std::ostringstream os;
  os << name << " seed=" << util::hex_u64(seed) << " blocks="
     << scenario.block_count() << " surface=" << scenario.width << "x"
     << scenario.height << " latency=" << latency_kind << ":" << latency_lo;
  if (latency_kind != "fixed") os << ".." << latency_hi;
  os << " tie=" << tie_label(election_tie);
  if (ack_timeout != 0) os << " ack_timeout=" << ack_timeout;
  if (!churn.empty()) os << " churn=" << churn.size();
  os << (comparable ? " [full-diff]" : " [engine-only]");
  return os.str();
}

util::JsonValue FuzzCase::to_json() const {
  util::JsonValue json = util::JsonValue::object();
  json["format"] = kFormatTag;
  json["seed"] = util::hex_u64(seed);
  json["name"] = name;
  json["scenario"] = lat::serialize_scenario(scenario);
  util::JsonValue latency = util::JsonValue::object();
  latency["kind"] = latency_kind;
  latency["lo"] = latency_lo;
  latency["hi"] = latency_hi;
  json["latency"] = std::move(latency);
  json["election_tie"] = std::string(tie_label(election_tie));
  json["motion_duration"] = motion_duration;
  json["ack_timeout"] = ack_timeout;
  json["max_iterations"] = max_iterations;
  json["max_events"] = util::hex_u64(max_events);
  json["comparable"] = comparable;
  util::JsonValue ops = util::JsonValue::array();
  for (const ChurnOp& op : churn) {
    util::JsonValue entry = util::JsonValue::object();
    entry["at"] = op.at;
    entry["op"] = std::string(to_string(op.kind));
    entry["ordinal"] = util::hex_u64(op.ordinal);
    ops.push_back(std::move(entry));
  }
  json["churn"] = std::move(ops);
  return json;
}

FuzzCase FuzzCase::from_json(const util::JsonValue& json) {
  const std::string& format = require(json, "format").as_string();
  if (format != kFormatTag) {
    throw std::runtime_error(fmt("unsupported fuzz case format '{}'", format));
  }
  FuzzCase fuzz_case;
  fuzz_case.seed = util::parse_u64(require(json, "seed").as_string());
  fuzz_case.name = require(json, "name").as_string();
  fuzz_case.scenario =
      lat::parse_scenario(require(json, "scenario").as_string());
  // The session asserts a valid scenario; a bad file is an error here.
  const std::vector<std::string> issues = lat::validate(fuzz_case.scenario);
  if (!issues.empty()) {
    throw std::runtime_error(fmt("fuzz case '{}' has an invalid scenario: {}",
                                 fuzz_case.name, issues.front()));
  }
  const util::JsonValue& latency = require(json, "latency");
  fuzz_case.latency_kind = require(latency, "kind").as_string();
  fuzz_case.latency_lo =
      static_cast<sim::Ticks>(require(latency, "lo").as_number());
  fuzz_case.latency_hi =
      static_cast<sim::Ticks>(require(latency, "hi").as_number());
  fuzz_case.election_tie =
      tie_from_label(require(json, "election_tie").as_string());
  fuzz_case.motion_duration =
      static_cast<sim::Ticks>(require(json, "motion_duration").as_number());
  fuzz_case.ack_timeout =
      static_cast<sim::Ticks>(require(json, "ack_timeout").as_number());
  fuzz_case.max_iterations =
      static_cast<uint32_t>(require(json, "max_iterations").as_number());
  fuzz_case.max_events = util::parse_u64(require(json, "max_events").as_string());
  fuzz_case.comparable = require(json, "comparable").as_bool();
  for (const util::JsonValue& entry : require(json, "churn").as_array()) {
    ChurnOp op;
    op.at = static_cast<sim::SimTime>(require(entry, "at").as_number());
    const std::string& kind = require(entry, "op").as_string();
    if (kind == "kill") {
      op.kind = ChurnOp::Kind::kKill;
    } else if (kind == "join") {
      op.kind = ChurnOp::Kind::kJoin;
    } else {
      throw std::runtime_error(fmt("unknown churn op '{}'", kind));
    }
    op.ordinal = util::parse_u64(require(entry, "ordinal").as_string());
    fuzz_case.churn.push_back(op);
  }
  return fuzz_case;
}

void FuzzCase::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(fmt("cannot write '{}'", path));
  out << to_json().dump(2);
  if (!out.flush()) throw std::runtime_error(fmt("write to '{}' failed", path));
}

FuzzCase FuzzCase::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(fmt("cannot read '{}'", path));
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(util::parse_json(text.str()));
  } catch (const std::exception& error) {
    throw std::runtime_error(fmt("{}: {}", path, error.what()));
  }
}

}  // namespace sb::check
