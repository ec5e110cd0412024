// CI perf gate: compares a fresh BENCH_sim.json against the committed
// baseline and fails when throughput regresses beyond the tolerance.
//
//   $ ./perf_check bench/BENCH_sim.json /tmp/current.json --tolerance 0.30
//
// For every (scenario, ruleset) group present in the *baseline*, the
// current report must contain the same group with
//   events_per_sec.mean >= baseline_mean * (1 - tolerance).
// Groups listed in --optional may be absent from the current report
// (SKIPPED) — used for the gated giant workloads CI runners cannot afford.
// Extra groups in the current report are informational.
//
// Shard-scaling gate (--min-shard-speedup, docs/BENCHMARKS.md): for every
// scenario whose current report has both a shards1 and a shards4 ruleset
// group, events_per_sec.mean(shards4) / mean(shards1) must reach the
// minimum — enforced only when the measuring host recorded >= 4 cores
// (single-core boxes cannot demonstrate parallel speedup; the windows
// serialize). 0 disables the gate.
//
// Exit codes: 0 = pass, 1 = usage/IO error or a malformed report (one
// stderr line naming the file and the field), 3 = regression detected.

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace {

using sb::util::get_field;
using sb::util::get_number;
using sb::util::get_string;
using sb::util::JsonValue;

/// One summary group as the gate reads it. The optional means are absent
/// from reports written before their metric existed.
struct Group {
  std::string scenario;
  std::string ruleset;
  double events_per_sec = 0.0;
  std::optional<double> shards;
  std::optional<double> conn_fast_rate;
  std::optional<double> shard_imbalance;
  std::optional<double> barrier_wait_fraction;
};

struct Report {
  double cores = 0.0;  ///< 0 = not recorded
  std::vector<Group> groups;

  /// The group for (scenario, ruleset); nullptr when absent.
  [[nodiscard]] const Group* find(const std::string& scenario,
                                  const std::string& ruleset) const {
    for (const Group& group : groups) {
      if (group.scenario == scenario && group.ruleset == ruleset) {
        return &group;
      }
    }
    return nullptr;
  }
};

/// `<metric>.mean` of a summary group.
double metric_mean(const JsonValue& group, std::string_view metric) {
  const JsonValue& summary =
      get_field(group, metric, JsonValue::Kind::kObject);
  try {
    return get_number(summary, "mean");
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(sb::fmt("in '{}': {}", metric, error.what()));
  }
}

std::optional<double> optional_mean(const JsonValue& group,
                                    std::string_view metric) {
  if (group.find(metric) == nullptr) return std::nullopt;
  return metric_mean(group, metric);
}

/// Loads a BENCH_sim.json report. Throws std::runtime_error naming the
/// field when the text does not parse or a field the gate reads is
/// missing or of another kind.
Report read_report(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot read the file");
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue json = sb::util::parse_json(text.str());
  if (get_string(json, "schema") != "sb-bench-sim/v1") {
    throw std::runtime_error("unexpected schema (want sb-bench-sim/v1)");
  }
  Report report;
  if (json.find("cores") != nullptr) report.cores = get_number(json, "cores");
  for (const JsonValue& entry :
       get_field(json, "summary", JsonValue::Kind::kArray).as_array()) {
    Group group;
    try {
      group.scenario = get_string(entry, "scenario");
      group.ruleset = get_string(entry, "ruleset");
      group.events_per_sec = metric_mean(entry, "events_per_sec");
      if (entry.find("shards") != nullptr) {
        group.shards = get_number(entry, "shards");
      }
      group.conn_fast_rate = optional_mean(entry, "conn_fast_rate");
      group.shard_imbalance = optional_mean(entry, "shard_imbalance");
      group.barrier_wait_fraction =
          optional_mean(entry, "barrier_wait_fraction");
    } catch (const std::runtime_error& error) {
      throw std::runtime_error(sb::fmt("summary group {}: {}",
                                       report.groups.size(), error.what()));
    }
    report.groups.push_back(std::move(group));
  }
  return report;
}

/// read_report, or one stderr line naming the file and the field.
std::optional<Report> load_report(const std::string& path) {
  try {
    return read_report(path);
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "perf_check: %s: %s\n", path.c_str(), error.what());
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  sb::CliParser cli(
      "compare BENCH_sim.json reports; fail on throughput regression");
  cli.add_double("tolerance", 0.30,
                 "allowed fractional drop in events_per_sec.mean");
  cli.add_string("optional", "",
                 "comma-separated scenarios whose baseline groups may be "
                 "absent from the current report (gated giant workloads)");
  cli.add_double("min-shard-speedup", 2.0,
                 "required events_per_sec ratio shards4/shards1 per "
                 "scenario; enforced only when the current report was "
                 "measured on >= 4 cores (0 = off)");
  cli.add_double("max-barrier-wait", 0.0,
                 "fail when a current sharded group's mean "
                 "barrier_wait_fraction exceeds this (0 = report only)");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positionals().size() != 2) {
    std::fprintf(stderr,
                 "usage: perf_check <baseline.json> <current.json> "
                 "[--tolerance 0.30]\n");
    return 1;
  }

  const double tolerance = cli.get_double("tolerance");
  const std::optional<Report> baseline = load_report(cli.positionals()[0]);
  if (!baseline) return 1;
  const std::optional<Report> current = load_report(cli.positionals()[1]);
  if (!current) return 1;
  if (baseline->groups.empty()) {
    std::fprintf(stderr, "perf_check: baseline has no summary groups\n");
    return 1;
  }

  bool failed = false;
  std::printf("%-16s %-12s %6s %14s %14s %8s %10s  %s\n", "scenario",
              "ruleset", "shards", "baseline ev/s", "current ev/s", "ratio",
              "conn fast", "verdict");
  for (const Group& group : baseline->groups) {
    const Group* current_group =
        current->find(group.scenario, group.ruleset);
    // Shard-scaling groups (docs/BENCHMARKS.md): the shard count rides in
    // the summary so the gate output shows which engine configuration a
    // group measured (absent in pre-sharding reports).
    char shards[8] = "-";
    if (group.shards) {
      std::snprintf(shards, sizeof(shards), "%.0f", *group.shards);
    }
    if (current_group == nullptr) {
      // Gated giant workloads are measured out-of-band and committed to
      // the baseline; a CI runner that did not produce them must not fail
      // on their absence.
      bool optional = false;
      for (const std::string& name :
           sb::split(cli.get_string("optional"), ',')) {
        optional |= name == group.scenario;
      }
      std::printf("%-16s %-12s %6s %14.0f %14s %8s %10s  %s\n",
                  group.scenario.c_str(), group.ruleset.c_str(), shards,
                  group.events_per_sec, "-", "-", "-",
                  optional ? "SKIPPED (optional)" : "MISSING");
      failed |= !optional;
      continue;
    }
    const double base_mean = group.events_per_sec;
    const double cur_mean = current_group->events_per_sec;
    const double ratio = base_mean > 0.0 ? cur_mean / base_mean : 1.0;
    const bool ok = ratio >= 1.0 - tolerance;
    // Informational: the connectivity-oracle fast-path hit rate of the
    // current run (absent in pre-fast-path reports).
    char fast[16] = "-";
    if (current_group->conn_fast_rate) {
      std::snprintf(fast, sizeof(fast), "%.4f",
                    *current_group->conn_fast_rate);
    }
    std::printf("%-16s %-12s %6s %14.0f %14.0f %8.2f %10s  %s\n",
                group.scenario.c_str(), group.ruleset.c_str(), shards,
                base_mean, cur_mean, ratio, fast, ok ? "ok" : "REGRESSED");
    failed |= !ok;
  }

  // Per-shard load balance of the current sharded groups (the mean of
  // RunRow::shard_imbalance — busiest shard relative to the mean shard;
  // 1.0 is perfectly balanced). Informational: a lopsided map explains a
  // weak speedup before anyone re-runs the bench by hand.
  const auto sharded = [](const Group& group) {
    return group.shards && *group.shards >= 2.0;
  };
  for (const Group& group : current->groups) {
    if (!sharded(group) || group.shard_imbalance.value_or(0.0) <= 0.0) {
      continue;
    }
    std::printf("shard balance  %-16s %-12s busiest/mean %.2fx\n",
                group.scenario.c_str(), group.ruleset.c_str(),
                *group.shard_imbalance);
  }

  // Barrier-wait share of worker time per current sharded group — the time
  // counterpart of the balance figure above. --max-barrier-wait turns the
  // report line into a gate.
  const double max_barrier_wait = cli.get_double("max-barrier-wait");
  for (const Group& group : current->groups) {
    const double wait = group.barrier_wait_fraction.value_or(0.0);
    if (!sharded(group) || wait <= 0.0) continue;
    const bool gated = max_barrier_wait > 0.0;
    const bool ok = !gated || wait <= max_barrier_wait;
    std::printf("barrier wait   %-16s %-12s %.1f%% of worker time%s%s\n",
                group.scenario.c_str(), group.ruleset.c_str(), wait * 100.0,
                gated ? "" : " (not gated)", ok ? "" : "  TOO HIGH");
    failed |= !ok;
  }

  // Shard-scaling gate: the parallel speedup the channel engine actually
  // delivered. Compares the shards4 and shards1 ruleset groups of the
  // *current* report per scenario; enforced only when that report recorded
  // >= 4 cores (a smaller box serializes the windows and the figure says
  // nothing about the engine).
  const double min_speedup = cli.get_double("min-shard-speedup");
  for (const Group& group : current->groups) {
    if (min_speedup <= 0.0 || group.ruleset != "shards1") continue;
    const Group* wide = current->find(group.scenario, "shards4");
    if (wide == nullptr || group.events_per_sec <= 0.0) continue;
    const double speedup = wide->events_per_sec / group.events_per_sec;
    const bool enforced = current->cores >= 4.0;
    const bool ok = !enforced || speedup >= min_speedup;
    std::printf("shard scaling  %-16s shards4/shards1 %.2fx (min %.2fx, "
                "%.0f cores%s)  %s\n",
                group.scenario.c_str(), speedup, min_speedup, current->cores,
                enforced ? "" : "; not enforced", ok ? "ok" : "TOO SLOW");
    failed |= !ok;
  }

  if (failed) {
    std::fprintf(stderr,
                 "perf_check: regression beyond %.0f%% tolerance (or missing "
                 "group, or shard scaling below the minimum); refresh the "
                 "baseline with bench_sim_throughput --json if intentional\n",
                 tolerance * 100.0);
    return 3;
  }
  std::printf("perf_check: all groups within %.0f%% of baseline\n",
              tolerance * 100.0);
  return 0;
}
