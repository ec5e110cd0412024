// Validates a Chrome Trace Event Format file produced by --trace-out:
//
//   $ ./trace_check trace.json
//   $ ./trace_check trace.json --require-spans window,rendezvous,drain
//
// Checks, in order:
//   1. the file parses with util/json and has a traceEvents array;
//   2. every event carries name/ph/pid/tid/ts with sane types;
//   3. per (pid, tid), non-metadata events are nondecreasing in ts in
//      array order (the writer stamps events at emission, so any
//      violation means a clock or buffering bug);
//   4. per (pid, tid), B/E events balance like parentheses and each E
//      matches the name of the innermost open B (proper nesting);
//   5. each --require-spans name appears as a B event on every thread
//      that emitted any span at all (CI uses this to prove the shard
//      round instrumentation covered every worker: each one opens window,
//      rendezvous and drain every round, while fold, integrate and decide
//      open only on the worker that runs the serial section).
//
// Exit codes: 0 = valid, 1 = usage/IO error, 2 = validation failure.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace {

using sb::util::JsonValue;

int fail(const std::string& message) {
  std::fprintf(stderr, "trace_check: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sb::CliParser cli("validate a Chrome Trace Event Format file");
  cli.add_string("require-spans", "",
                 "comma-separated span names that must open on every "
                 "thread that emitted spans");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positionals().size() != 1) {
    std::fprintf(stderr, "usage: trace_check <trace.json> "
                         "[--require-spans window,rendezvous,drain]\n");
    return 1;
  }

  const std::string path = cli.positionals()[0];
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "trace_check: cannot read '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue trace;
  try {
    trace = sb::util::parse_json(buffer.str());
  } catch (const std::exception& error) {
    return fail(sb::fmt("'{}' is not valid JSON: {}", path, error.what()));
  }
  const JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("top-level traceEvents array is missing");
  }

  using ThreadKey = std::pair<double, double>;  // (pid, tid)
  std::map<ThreadKey, double> last_ts;
  std::map<ThreadKey, std::vector<std::string>> open_spans;
  std::map<ThreadKey, std::set<std::string>> begun;
  size_t index = 0;
  for (const JsonValue& event : events->as_array()) {
    ++index;
    const JsonValue* name = event.find("name");
    const JsonValue* phase = event.find("ph");
    const JsonValue* pid = event.find("pid");
    const JsonValue* tid = event.find("tid");
    const JsonValue* ts = event.find("ts");
    const auto is_kind = [](const JsonValue* v, JsonValue::Kind kind) {
      return v != nullptr && v->kind() == kind;
    };
    if (!is_kind(name, JsonValue::Kind::kString) ||
        !is_kind(phase, JsonValue::Kind::kString) ||
        !is_kind(pid, JsonValue::Kind::kNumber) ||
        !is_kind(tid, JsonValue::Kind::kNumber) ||
        !is_kind(ts, JsonValue::Kind::kNumber)) {
      return fail(sb::fmt("event {} is missing one of name/ph/pid/tid/ts",
                          index));
    }
    const std::string& ph = phase->as_string();
    if (ph == "M") continue;  // metadata carries no meaningful ts
    const ThreadKey key{pid->as_number(), tid->as_number()};
    const auto seen = last_ts.find(key);
    if (seen != last_ts.end() && ts->as_number() < seen->second) {
      return fail(sb::fmt(
          "event {} ('{}') runs backward on tid {}: ts {} after {}", index,
          name->as_string(), tid->as_number(), ts->as_number(),
          seen->second));
    }
    last_ts[key] = ts->as_number();
    if (ph == "B") {
      open_spans[key].push_back(name->as_string());
      begun[key].insert(name->as_string());
    } else if (ph == "E") {
      std::vector<std::string>& stack = open_spans[key];
      if (stack.empty() || stack.back() != name->as_string()) {
        return fail(sb::fmt(
            "event {} closes '{}' on tid {} but the innermost open span "
            "is '{}'",
            index, name->as_string(), tid->as_number(),
            stack.empty() ? "<none>" : stack.back()));
      }
      stack.pop_back();
    } else if (ph != "i") {
      return fail(sb::fmt("event {} has unknown phase '{}'", index, ph));
    }
  }
  for (const auto& [key, stack] : open_spans) {
    if (!stack.empty()) {
      return fail(sb::fmt("tid {} ends the capture with '{}' still open",
                          key.second, stack.back()));
    }
  }

  for (const std::string& required :
       sb::split(cli.get_string("require-spans"), ',')) {
    if (required.empty()) continue;
    for (const auto& [key, names] : begun) {
      if (names.empty()) continue;  // thread emitted no spans, only instants
      if (names.find(required) == names.end()) {
        return fail(sb::fmt(
            "tid {} emitted spans but never opened required span '{}'",
            key.second, required));
      }
    }
  }

  std::printf("trace_check: %s valid (%zu events, %zu threads)\n",
              path.c_str(), events->size(), last_ts.size());
  return 0;
}
