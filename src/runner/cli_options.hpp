#pragma once
// Shared sweep CLI vocabulary for tools/sweep, tools/sweep_worker, and
// examples/large_scale.
//
// The flags that describe a sweep grid (scenarios, seeds, latency, shard
// layout, event budget) are registered and validated in one place so every
// front end rejects bad input with the same clear message, and so the
// distributed backend can ship the exact same description to remote workers
// (runner/serialize.hpp) and re-materialize an identical grid there.

#include <cstdint>
#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "runner/sweep.hpp"
#include "util/cli.hpp"

namespace sb::runner {

/// Everything needed to reconstruct a sweep grid deterministically. This is
/// the unit of agreement between the local front end and remote workers:
/// two processes holding equal SweepCliOptions expand equal RunSpec lists.
struct SweepCliOptions {
  /// Scenario names in lat::resolve_scenario vocabulary (tower<N>, blob<N>,
  /// rect<N>, fig10, or .surf paths — paths must be readable by workers).
  std::vector<std::string> scenarios;
  size_t seed_count = 4;
  uint64_t master_seed = 0x5eedULL;
  /// Link latency model label: fixed | uniform | exponential. Doubles as
  /// the ruleset label ("standard" when fixed).
  std::string latency = "fixed";
  /// Event budget per run; 0 = session default.
  uint64_t max_events = 0;
  size_t shards = 1;
  size_t shard_threads = 1;
  /// Local worker threads (0 = hardware concurrency). Not part of the grid
  /// identity, but recorded in the report header by both backends.
  size_t threads = 0;
};

/// Registers the shared grid flags on a parser, using `defaults` for the
/// default values (front ends differ, e.g. large_scale defaults --seeds 0).
void add_sweep_flags(CliParser& cli, const SweepCliOptions& defaults);

/// Reads back the flags registered by add_sweep_flags and validates them:
/// non-negative counts and a parseable --master-seed here, the rest through
/// validate_sweep_options. Throws std::runtime_error with a usage-style
/// message on any violation (front ends report it and exit nonzero).
/// Positional arguments are appended to `scenarios` as .surf paths.
/// min_seeds 0 admits large_scale's "--seeds 0 = single-run mode".
[[nodiscard]] SweepCliOptions parse_sweep_flags(const CliParser& cli,
                                                size_t min_seeds = 1);

/// The option checks shared by every way a sweep description arrives (the
/// command line and options_from_json, i.e. client submit frames and
/// journal job records): non-empty scenario names, seed_count >= min_seeds,
/// shards >= 1, and a known latency. Throws
/// std::runtime_error naming the option. Clamps shard_threads to shards
/// with a warning (extra threads could never run).
void validate_sweep_options(SweepCliOptions& options, size_t min_seeds = 1);

/// Session config implied by the options (latency model, event budget,
/// shard layout). Throws on an unknown latency label.
[[nodiscard]] core::SessionConfig make_session_config(
    const SweepCliOptions& options);

/// Ruleset/config label recorded in reports: "standard" for fixed latency,
/// otherwise the latency label.
[[nodiscard]] std::string ruleset_label(const SweepCliOptions& options);

/// Resolves every scenario name and builds the full grid. Throws with the
/// offending name on resolution failure.
[[nodiscard]] SweepGrid make_sweep_grid(const SweepCliOptions& options);

/// Human-readable scenario vocabulary (the --list-scenarios text).
[[nodiscard]] std::string scenario_vocabulary();

/// Reads a millisecond-valued flag, enforcing min <= value <= 24 h. The
/// cap exists because these values are narrowed to int for poll()/wait_for
/// deadlines — an unchecked 2^31 ms would wrap negative and fire instantly.
[[nodiscard]] int parse_ms_flag(const CliParser& cli, const std::string& name,
                                int64_t min);

}  // namespace sb::runner
