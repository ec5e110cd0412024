#pragma once
// FuzzCase: one self-contained differential-fuzzer input — a scenario plus
// every session knob the generator randomizes (latency model, tie policy,
// timing, churn plan) under a single identifying seed.
//
// A case serializes to a compact JSON repro file (the scenario rides along
// as its canonical .surf text, so repros are self-contained and readable).
// Failing cases are minimized (src/check/minimize.hpp) and committed under
// tests/corpus/, where tests/fuzz_corpus_test replays them forever after;
// `tools/fuzz_sim --replay <file>` re-runs one interactively. See
// docs/TESTING.md for the corpus workflow.

#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"

namespace sb::check {

/// One scheduled mid-run churn action. Victims and join sites are resolved
/// at execution time from `ordinal` and the grid state — never from
/// positions recorded at generation time — so a plan stays meaningful while
/// the minimizer removes blocks.
struct ChurnOp {
  enum class Kind { kKill, kJoin };
  sim::SimTime at = 0;  ///< simulated time the action fires (>= 1)
  Kind kind = Kind::kKill;
  /// Deterministic pick among the candidates alive at execution time
  /// (kKill: ordinal % live non-root modules, in id order; kJoin: row-major
  /// scan offset into the surface for the first attachable free cell).
  uint64_t ordinal = 0;
};

[[nodiscard]] std::string_view to_string(ChurnOp::Kind kind);

struct FuzzCase {
  /// Generator seed this case was derived from (identity; 0 = hand-made).
  uint64_t seed = 0;
  std::string name = "case";
  lat::Scenario scenario;

  // -- session knobs ---------------------------------------------------------
  /// Link latency: "fixed" (latency_lo) or "uniform" ([lo, hi]).
  std::string latency_kind = "fixed";
  sim::Ticks latency_lo = 1;
  sim::Ticks latency_hi = 1;
  core::ElectionTie election_tie = core::ElectionTie::kLowestId;
  sim::Ticks motion_duration = 10;
  sim::Ticks ack_timeout = 0;
  /// Epoch cap (0 = the session's 20N^2+500 auto cap). Adversarial shapes
  /// can livelock the algorithm (elected moves that never converge), so the
  /// generator sets a small cap: hitting it ends the run as `blocked` at a
  /// deterministic epoch — schedule-independent, unlike the event budget.
  uint32_t max_iterations = 0;
  /// Event budget per backend run; hitting it demotes the case to
  /// engine-only comparison (limits land at window granularity, so
  /// backends stop at different logical points).
  uint64_t max_events = 2'000'000;
  std::vector<ChurnOp> churn;

  /// True when the case's knobs make the one-shard and several-shard
  /// executions logically comparable: an arrival-order-independent tie
  /// policy (kLowestId), ack_timeout == 0 (timeout timers race same-tick
  /// message deliveries, whose relative order is a queue-insertion artifact
  /// that legitimately differs between the global and per-shard queues),
  /// and fixed latency unless the case has no churn. Under those knobs each
  /// election's winner is the global (distance, id) minimum, so the move
  /// trace does not depend on link jitter, which per-shard RNG streams draw
  /// differently; a churn op lands at a fixed tick, and jitter would move
  /// it against the elections. Engine-only cases still check thread-count
  /// determinism and all invariants.
  bool comparable = true;

  /// Session config implied by the knobs (shards/threads left at 1; the
  /// differential harness overrides them per backend).
  [[nodiscard]] core::SessionConfig session_config() const;

  /// One-line human description ("seed=0x.. blob 42 blocks 12x9 fixed:3").
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] util::JsonValue to_json() const;
  /// Inverse of to_json. Throws std::runtime_error on malformed input and
  /// on a scenario that fails lat::validate() (naming the case and the
  /// first issue).
  [[nodiscard]] static FuzzCase from_json(const util::JsonValue& json);

  /// File round-trip; throws std::runtime_error on IO or parse errors.
  void save(const std::string& path) const;
  [[nodiscard]] static FuzzCase load(const std::string& path);
};

}  // namespace sb::check
