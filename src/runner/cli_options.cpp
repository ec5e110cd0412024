#include "runner/cli_options.hpp"

#include <stdexcept>

#include "lattice/scenario.hpp"
#include "msg/latency.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace sb::runner {

namespace {

/// Splits "a,b,c" into parts; empty input gives an empty list.
std::vector<std::string> split_csv(const std::string& text) {
  if (text.empty()) return {};
  return split(text, ',');
}

/// Reads a count flag that must be >= `min` (CliParser already rejected
/// non-numeric text; this adds the range check with a clear message).
size_t parse_count(const CliParser& cli, const std::string& name,
                   int64_t min) {
  const int64_t value = cli.get_int(name);
  if (value < min) {
    throw std::runtime_error(
        fmt("--{} must be >= {}, got {}", name, min, value));
  }
  return static_cast<size_t>(value);
}

}  // namespace

void add_sweep_flags(CliParser& cli, const SweepCliOptions& defaults) {
  cli.add_string("scenario", join(defaults.scenarios, ","),
                 "comma-separated scenario names (tower<N>, blob<N>, "
                 "rect<N>, fig10) — .surf paths go as positional arguments");
  cli.add_int("seeds", static_cast<int64_t>(defaults.seed_count),
              "number of seeds forked from --master-seed");
  cli.add_string("master-seed", util::hex_u64(defaults.master_seed),
                 "master seed for RNG forking");
  cli.add_int("threads", static_cast<int64_t>(defaults.threads),
              "worker threads (0 = hardware concurrency)");
  cli.add_string("latency", defaults.latency,
                 "link latency model: fixed | uniform | exponential");
  cli.add_int("max-events", static_cast<int64_t>(defaults.max_events),
              "event budget per run (0 = default; giant blob/rect runs "
              "need a cap — completion is O(N^2) hops)");
  cli.add_int("shards", static_cast<int64_t>(defaults.shards),
              "shards per world: column stripes cut at equal block count, "
              "at most one per column; every count runs the one windowed "
              "engine (1 = a single stripe on one worker)");
  cli.add_int("shard-threads", static_cast<int64_t>(defaults.shard_threads),
              "threads draining shard windows per world (0 = hardware "
              "concurrency; multiplies with --threads)");
}

SweepCliOptions parse_sweep_flags(const CliParser& cli, size_t min_seeds) {
  SweepCliOptions options;
  options.scenarios = split_csv(cli.get_string("scenario"));
  for (const std::string& path : cli.positionals()) {
    options.scenarios.push_back(path);
  }
  options.seed_count = parse_count(cli, "seeds", 0);
  try {
    options.master_seed = util::parse_u64(cli.get_string("master-seed"));
  } catch (const std::exception&) {
    throw std::runtime_error(fmt("--master-seed expects a decimal or 0x hex "
                                 "integer, got '{}'",
                                 cli.get_string("master-seed")));
  }
  options.threads = parse_count(cli, "threads", 0);
  options.latency = cli.get_string("latency");
  options.max_events = parse_count(cli, "max-events", 0);
  options.shards = parse_count(cli, "shards", 0);
  options.shard_threads = parse_count(cli, "shard-threads", 0);
  validate_sweep_options(options, min_seeds);
  return options;
}

void validate_sweep_options(SweepCliOptions& options, size_t min_seeds) {
  for (const std::string& name : options.scenarios) {
    if (name.empty()) {
      throw std::runtime_error("empty scenario name in --scenario list");
    }
  }
  if (options.seed_count < min_seeds) {
    throw std::runtime_error(fmt("--seeds must be >= {}, got {}", min_seeds,
                                 options.seed_count));
  }
  if (options.latency != "fixed" && options.latency != "uniform" &&
      options.latency != "exponential") {
    throw std::runtime_error(fmt(
        "unknown --latency '{}' (fixed | uniform | exponential)",
        options.latency));
  }
  if (options.shards < 1) {
    throw std::runtime_error(
        fmt("--shards must be >= 1, got {}", options.shards));
  }
  // The engine caps worker threads at the shard count, so extra threads
  // would silently idle; clamp here and say so. 0 is the
  // hardware-concurrency sentinel and is never clamped (the cap still
  // applies inside the engine).
  if (options.shard_threads > options.shards) {
    log_warn(
        "--shard-threads {} exceeds --shards {}: a shard window is drained "
        "by at most one thread, so the extra threads would never run; "
        "clamping to {}",
        options.shard_threads, options.shards, options.shards);
    options.shard_threads = options.shards;
  }
}

core::SessionConfig make_session_config(const SweepCliOptions& options) {
  core::SessionConfig config;
  if (options.max_events > 0) config.max_events = options.max_events;
  config.sim.shards = options.shards;
  // Written onto the config directly (not via execute_run's shard_threads
  // override, whose 0 means "leave the spec's value") so that
  // --shard-threads 0 really selects hardware concurrency.
  config.sim.shard_threads = options.shard_threads;
  if (options.latency == "uniform") {
    config.sim.latency = msg::LatencyModel::uniform(1, 8);
  } else if (options.latency == "exponential") {
    config.sim.latency = msg::LatencyModel::exponential(3.0);
  } else if (options.latency != "fixed") {
    throw std::runtime_error(fmt(
        "unknown --latency '{}' (fixed | uniform | exponential)",
        options.latency));
  }
  return config;
}

std::string ruleset_label(const SweepCliOptions& options) {
  return options.latency == "fixed" ? "standard" : options.latency;
}

SweepGrid make_sweep_grid(const SweepCliOptions& options) {
  if (options.scenarios.empty()) {
    throw std::runtime_error("no scenarios given (--scenario or positional "
                             ".surf paths; see --list-scenarios)");
  }
  SweepGrid grid;
  grid.master_seed = options.master_seed;
  grid.seed_count = options.seed_count;
  for (const std::string& name : options.scenarios) {
    try {
      grid.scenarios.push_back(
          {name, lat::resolve_scenario(name, grid.master_seed)});
    } catch (const std::exception& error) {
      throw std::runtime_error(std::string(error.what()) +
                               " (--list-scenarios prints the vocabulary)");
    }
  }
  grid.configs.push_back({ruleset_label(options),
                          make_session_config(options)});
  return grid;
}

int parse_ms_flag(const CliParser& cli, const std::string& name,
                  int64_t min) {
  constexpr int64_t kMaxMs = 24LL * 60 * 60 * 1000;
  const int64_t value = cli.get_int(name);
  if (value < min || value > kMaxMs) {
    throw std::runtime_error(fmt("--{} must be in [{}, {}] ms, got {}", name,
                                 min, kMaxMs, value));
  }
  return static_cast<int>(value);
}

std::string scenario_vocabulary() {
  return
      "Scenario names (lat::resolve_scenario vocabulary):\n"
      "  tower<N>   Lemma-1 tower of N blocks (even N, 4 <= N <= 10000000)\n"
      "  blob<N>    giant random blob, 64 <= N <= 10000000 (seeded by "
      "--master-seed)\n"
      "  rect<N>    giant block rectangle, 64 <= N <= 10000000\n"
      "  fig10      the paper's Figs 10-11 twelve-block example\n"
      "  <path>     anything else is loaded as a .surf scenario file\n";
}

}  // namespace sb::runner
