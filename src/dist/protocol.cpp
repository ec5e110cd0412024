#include "dist/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "runner/serialize.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"

namespace sb::dist {

namespace {

using util::get_field;
using util::get_int;
using util::get_size;
using util::get_string;
using util::JsonValue;

WorkUnit unit_from_json(const JsonValue& json) {
  WorkUnit unit;
  unit.id = get_size(json, "id");
  unit.begin = get_size(json, "begin");
  unit.end = get_size(json, "end");
  if (unit.end < unit.begin) {
    throw std::runtime_error("dist unit has end < begin");
  }
  return unit;
}

JsonValue unit_to_json(const WorkUnit& unit) {
  JsonValue out = JsonValue::object();
  out["id"] = JsonValue(unit.id);
  out["begin"] = JsonValue(unit.begin);
  out["end"] = JsonValue(unit.end);
  return out;
}

JobState state_from_string(const std::string& text) {
  if (text == "running") return JobState::kRunning;
  if (text == "done") return JobState::kDone;
  if (text == "cancelled") return JobState::kCancelled;
  throw std::runtime_error("unknown dist job state '" + text + "'");
}

}  // namespace

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kJob: return "job";
    case MsgType::kJobRequest: return "job_request";
    case MsgType::kPull: return "pull";
    case MsgType::kUnit: return "unit";
    case MsgType::kResult: return "result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kStop: return "stop";
    case MsgType::kSubmit: return "submit";
    case MsgType::kSubmitted: return "submitted";
    case MsgType::kStatus: return "status";
    case MsgType::kJobStatus: return "job_status";
    case MsgType::kFetch: return "fetch";
    case MsgType::kJobDone: return "job_done";
    case MsgType::kCancel: return "cancel";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kMetricsReport: return "metrics_report";
  }
  return "?";
}

std::string_view to_string(JobState state) {
  switch (state) {
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

Message Message::hello(uint64_t pid, Role role, size_t cores,
                       uint64_t memory_mb) {
  Message m;
  m.type = MsgType::kHello;
  m.worker_pid = pid;
  m.role = role;
  m.cores = cores;
  m.memory_mb = memory_mb;
  return m;
}

Message Message::welcome() {
  Message m;
  m.type = MsgType::kWelcome;
  return m;
}

Message Message::job_description(uint64_t job,
                                 runner::SweepCliOptions options,
                                 size_t spec_count) {
  Message m;
  m.type = MsgType::kJob;
  m.job = job;
  m.options = std::move(options);
  m.spec_count = spec_count;
  return m;
}

Message Message::job_request(uint64_t job) {
  Message m;
  m.type = MsgType::kJobRequest;
  m.job = job;
  return m;
}

Message Message::pull() {
  Message m;
  m.type = MsgType::kPull;
  return m;
}

Message Message::make_unit(uint64_t job, WorkUnit unit) {
  Message m;
  m.type = MsgType::kUnit;
  m.job = job;
  m.unit = unit;
  return m;
}

Message Message::result(uint64_t job, WorkUnit unit,
                        std::vector<runner::RunRow> rows) {
  Message m;
  m.type = MsgType::kResult;
  m.job = job;
  m.unit = unit;
  m.rows = std::move(rows);
  return m;
}

Message Message::heartbeat() {
  Message m;
  m.type = MsgType::kHeartbeat;
  return m;
}

Message Message::stop() {
  Message m;
  m.type = MsgType::kStop;
  return m;
}

Message Message::submit(runner::SweepCliOptions options, size_t unit_size,
                        size_t min_cores) {
  Message m;
  m.type = MsgType::kSubmit;
  m.options = std::move(options);
  m.unit_size = unit_size;
  m.min_cores = min_cores;
  return m;
}

Message Message::submitted(uint64_t job, size_t spec_count) {
  Message m;
  m.type = MsgType::kSubmitted;
  m.job = job;
  m.spec_count = spec_count;
  return m;
}

Message Message::status(uint64_t job) {
  Message m;
  m.type = MsgType::kStatus;
  m.job = job;
  return m;
}

Message Message::job_status(uint64_t job, JobState state, size_t merged,
                            size_t total) {
  Message m;
  m.type = MsgType::kJobStatus;
  m.job = job;
  m.state = state;
  m.merged = merged;
  m.total = total;
  return m;
}

Message Message::fetch(uint64_t job) {
  Message m;
  m.type = MsgType::kFetch;
  m.job = job;
  return m;
}

Message Message::job_done(uint64_t job, JobState state) {
  Message m;
  m.type = MsgType::kJobDone;
  m.job = job;
  m.state = state;
  return m;
}

Message Message::cancel(uint64_t job) {
  Message m;
  m.type = MsgType::kCancel;
  m.job = job;
  return m;
}

Message Message::metrics_request() {
  Message m;
  m.type = MsgType::kMetrics;
  return m;
}

Message Message::metrics_report(util::JsonValue metrics) {
  Message m;
  m.type = MsgType::kMetricsReport;
  m.metrics = std::move(metrics);
  return m;
}

std::string encode(const Message& message) {
  JsonValue out = JsonValue::object();
  out["type"] = JsonValue(to_string(message.type));
  switch (message.type) {
    case MsgType::kHello:
      out["version"] = JsonValue(message.version);
      out["pid"] = JsonValue(message.worker_pid);
      out["role"] =
          JsonValue(message.role == Role::kWorker ? "worker" : "client");
      out["cores"] = JsonValue(message.cores);
      out["memory_mb"] = JsonValue(message.memory_mb);
      break;
    case MsgType::kJob:
      out["job"] = JsonValue(message.job);
      out["options"] = runner::options_to_json(message.options);
      out["spec_count"] = JsonValue(message.spec_count);
      break;
    case MsgType::kJobRequest:
    case MsgType::kStatus:
    case MsgType::kFetch:
    case MsgType::kCancel:
      out["job"] = JsonValue(message.job);
      break;
    case MsgType::kUnit:
      out["job"] = JsonValue(message.job);
      out["unit"] = unit_to_json(message.unit);
      break;
    case MsgType::kResult: {
      out["job"] = JsonValue(message.job);
      out["unit"] = unit_to_json(message.unit);
      JsonValue rows = JsonValue::array();
      for (const runner::RunRow& row : message.rows) {
        rows.push_back(runner::encode_row(row, runner::RowFormat::kWire));
      }
      out["rows"] = std::move(rows);
      break;
    }
    case MsgType::kSubmit:
      out["options"] = runner::options_to_json(message.options);
      out["unit_size"] = JsonValue(message.unit_size);
      out["min_cores"] = JsonValue(message.min_cores);
      break;
    case MsgType::kSubmitted:
      out["job"] = JsonValue(message.job);
      out["spec_count"] = JsonValue(message.spec_count);
      break;
    case MsgType::kJobStatus:
      out["job"] = JsonValue(message.job);
      out["state"] = JsonValue(to_string(message.state));
      out["merged"] = JsonValue(message.merged);
      out["total"] = JsonValue(message.total);
      break;
    case MsgType::kJobDone:
      out["job"] = JsonValue(message.job);
      out["state"] = JsonValue(to_string(message.state));
      break;
    case MsgType::kMetricsReport:
      out["metrics"] = message.metrics;
      break;
    case MsgType::kWelcome:
    case MsgType::kPull:
    case MsgType::kHeartbeat:
    case MsgType::kStop:
    case MsgType::kMetrics: break;
  }
  return out.dump();
}

Message decode(const std::string& payload) {
  const JsonValue json = util::parse_json(payload);
  if (!json.is_object()) {
    throw std::runtime_error("dist message is not a JSON object");
  }
  const std::string& type = get_string(json, "type");
  Message m;
  if (type == "hello") {
    m.type = MsgType::kHello;
    m.version = static_cast<int>(get_int(json, "version", 0, INT32_MAX));
    if (m.version != kProtocolVersion) {
      throw std::runtime_error(
          fmt("dist protocol version mismatch: peer speaks {}, this "
              "process speaks {}",
              m.version, kProtocolVersion));
    }
    m.worker_pid = get_size(json, "pid");
    const std::string& role = get_string(json, "role");
    if (role == "worker") {
      m.role = Role::kWorker;
    } else if (role == "client") {
      m.role = Role::kClient;
    } else {
      throw std::runtime_error("unknown dist hello role '" + role + "'");
    }
    m.cores = std::max<size_t>(1, get_size(json, "cores"));
    m.memory_mb = get_size(json, "memory_mb");
  } else if (type == "welcome") {
    m.type = MsgType::kWelcome;
  } else if (type == "job") {
    m.type = MsgType::kJob;
    m.job = get_size(json, "job");
    m.options = runner::options_from_json(
        get_field(json, "options", JsonValue::Kind::kObject));
    m.spec_count = get_size(json, "spec_count");
  } else if (type == "job_request") {
    m.type = MsgType::kJobRequest;
    m.job = get_size(json, "job");
  } else if (type == "pull") {
    m.type = MsgType::kPull;
  } else if (type == "unit") {
    m.type = MsgType::kUnit;
    m.job = get_size(json, "job");
    m.unit = unit_from_json(get_field(json, "unit", JsonValue::Kind::kObject));
  } else if (type == "result") {
    m.type = MsgType::kResult;
    m.job = get_size(json, "job");
    m.unit = unit_from_json(get_field(json, "unit", JsonValue::Kind::kObject));
    for (const JsonValue& row :
         get_field(json, "rows", JsonValue::Kind::kArray).as_array()) {
      m.rows.push_back(runner::row_from_json(row));
    }
  } else if (type == "heartbeat") {
    m.type = MsgType::kHeartbeat;
  } else if (type == "stop") {
    m.type = MsgType::kStop;
  } else if (type == "submit") {
    m.type = MsgType::kSubmit;
    m.options = runner::options_from_json(
        get_field(json, "options", JsonValue::Kind::kObject));
    m.unit_size = std::max<size_t>(1, get_size(json, "unit_size"));
    m.min_cores = get_size(json, "min_cores");
  } else if (type == "submitted") {
    m.type = MsgType::kSubmitted;
    m.job = get_size(json, "job");
    m.spec_count = get_size(json, "spec_count");
  } else if (type == "status") {
    m.type = MsgType::kStatus;
    m.job = get_size(json, "job");
  } else if (type == "job_status") {
    m.type = MsgType::kJobStatus;
    m.job = get_size(json, "job");
    m.state = state_from_string(get_string(json, "state"));
    m.merged = get_size(json, "merged");
    m.total = get_size(json, "total");
  } else if (type == "fetch") {
    m.type = MsgType::kFetch;
    m.job = get_size(json, "job");
  } else if (type == "job_done") {
    m.type = MsgType::kJobDone;
    m.job = get_size(json, "job");
    m.state = state_from_string(get_string(json, "state"));
  } else if (type == "cancel") {
    m.type = MsgType::kCancel;
    m.job = get_size(json, "job");
  } else if (type == "metrics") {
    m.type = MsgType::kMetrics;
  } else if (type == "metrics_report") {
    m.type = MsgType::kMetricsReport;
    m.metrics = get_field(json, "metrics", JsonValue::Kind::kObject);
  } else {
    throw std::runtime_error("unknown dist message type '" + type + "'");
  }
  return m;
}

}  // namespace sb::dist
