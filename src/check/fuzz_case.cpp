#include "check/fuzz_case.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace sb::check {

namespace {

using util::get_bool;
using util::get_field;
using util::get_int;
using util::get_size;
using util::get_string;
using util::get_u64;
using util::JsonValue;

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

FuzzCase FuzzCase::from_json(const JsonValue& json) {
  const std::string& format = get_string(json, "format");
  if (format != kFormatTag) {
    throw std::runtime_error(fmt("unsupported fuzz case format '{}'", format));
  }
  FuzzCase fuzz_case;
  fuzz_case.seed = get_u64(json, "seed");
  fuzz_case.name = get_string(json, "name");
  fuzz_case.scenario = lat::parse_scenario(get_string(json, "scenario"));
  // The session asserts a valid scenario; a bad file is an error here.
  const std::vector<std::string> issues = lat::validate(fuzz_case.scenario);
  if (!issues.empty()) {
    throw std::runtime_error(fmt("fuzz case '{}' has an invalid scenario: {}",
                                 fuzz_case.name, issues.front()));
  }
  // The engine asserts on the same bounds (msg::LatencyModel, the sharded
  // simulator's lookahead); refuse them here instead.
  const JsonValue& latency =
      get_field(json, "latency", JsonValue::Kind::kObject);
  fuzz_case.latency_kind = get_string(latency, "kind");
  if (fuzz_case.latency_kind != "fixed" &&
      fuzz_case.latency_kind != "uniform") {
    throw std::runtime_error(fmt("unknown latency kind '{}' (fixed | uniform)",
                                 fuzz_case.latency_kind));
  }
  fuzz_case.latency_lo = get_int(latency, "lo", 1, util::kMaxExactJsonInt);
  fuzz_case.latency_hi = get_int(latency, "hi", 1, util::kMaxExactJsonInt);
  if (fuzz_case.latency_lo > fuzz_case.latency_hi) {
    throw std::runtime_error(fmt("latency lo {} exceeds hi {}",
                                 fuzz_case.latency_lo, fuzz_case.latency_hi));
  }
  fuzz_case.election_tie = tie_from_label(get_string(json, "election_tie"));
  fuzz_case.motion_duration =
      get_int(json, "motion_duration", 1, util::kMaxExactJsonInt);
  fuzz_case.ack_timeout = get_size(json, "ack_timeout");
  fuzz_case.max_iterations =
      static_cast<uint32_t>(get_int(json, "max_iterations", 0, UINT32_MAX));
  fuzz_case.max_events = get_u64(json, "max_events");
  fuzz_case.comparable = get_bool(json, "comparable");
  for (const JsonValue& entry :
       get_field(json, "churn", JsonValue::Kind::kArray).as_array()) {
    ChurnOp op;
    op.at = get_size(entry, "at");
    const std::string& kind = get_string(entry, "op");
    if (kind == "kill") {
      op.kind = ChurnOp::Kind::kKill;
    } else if (kind == "join") {
      op.kind = ChurnOp::Kind::kJoin;
    } else {
      throw std::runtime_error(fmt("unknown churn op '{}'", kind));
    }
    op.ordinal = get_u64(entry, "ordinal");
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
