#pragma once
// InvariantOracle: audits a running session after every grid mutation.
//
// The oracle attaches to a ReconfigurationSession through the simulator's
// mutation observer (fired after each motion completion and external event,
// always from the sequential context — see Simulator::set_mutation_observer)
// and the session's move listener. On every hook it checks the global
// invariants that must hold at any quiescent point of the paper's algorithm
// regardless of engine, schedule, latency, or churn:
//
//   occupancy    the cell array, the id->position index, the per-row/column
//                counts, and block_count agree (no duplicate occupancy, no
//                phantom blocks);
//   connectivity the blocks form one 4-connected component — Remark 1, via
//                the hint-free ground-truth flood
//                (lat::is_connected_ground_truth);
//   cache        when the grid's cached connectivity verdict is populated
//                it agrees with the ground truth (sampled, so the audit
//                stays cheap on big worlds);
//   conservation blocks are never created or destroyed behind the session's
//                back: grid.block_count() only grows through hot_join, and
//                every block has a registered module (deaths keep the block
//                on the surface as an inert obstacle);
//   columns      the SoA columns (lat::WorldState) agree with their sources
//                of truth: the occupancy image with the cell array; and the
//                state-tag column, which is the module registry, with the
//                programs: every id it registers finds, in its slot, a
//                program of that id, and it registers module_count() ids;
//   contacts     every registered module's neighbour table equals the
//                grid's four neighbours of its block — the simulator
//                delivers a message only if the receiver's table lists the
//                sender, so a stale table would deliver across a broken
//                contact or drop across a live one;
//   epochs       the elected-move epoch sequence is non-decreasing.
//
// Violations are collected as human-readable strings (capped) rather than
// aborting, so the differential harness can report them alongside trace
// divergences and the minimizer can shrink the triggering case.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "util/rng.hpp"

namespace sb::check {

struct OracleOptions {
  /// Check every Nth mutation (1 = all). The occupancy scan and ground-truth
  /// flood are O(cells); fuzz-sized worlds afford every mutation.
  uint64_t check_every = 1;
  /// Probability that a populated connectivity-hint is cross-checked
  /// against a fresh ground-truth flood on a checked mutation.
  double hint_probe_rate = 0.25;
  /// Seed for the oracle's own sampling stream (never touches sim RNG).
  uint64_t seed = 0x0bac1eULL;
  /// Stop recording after this many violations (the first is the story).
  size_t max_violations = 32;
};

class InvariantOracle {
 public:
  explicit InvariantOracle(OracleOptions options = OracleOptions{});

  /// Hooks the oracle into the session: installs the simulator mutation
  /// observer and the session move listener. `chain` (optional) is invoked
  /// after the oracle on every elected move, so callers can keep their own
  /// move-trace recording.
  void attach(core::ReconfigurationSession& session,
              std::function<void(core::Epoch, lat::BlockId,
                                 const motion::RuleApplication&)>
                  chain = {});

  /// One full audit of the current world state; usable standalone (e.g. on
  /// a freshly staged scenario or after run() returns).
  void check_now(sim::Simulator& sim);

  /// Grows the conservation baseline by one (called by the churn executor
  /// when a hot_join lands).
  void expect_join() { ++expected_blocks_; }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool clean() const { return violations_.empty(); }
  [[nodiscard]] uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] uint64_t hint_probes() const { return hint_probes_; }

 private:
  void on_mutation(sim::Simulator& sim);
  void on_move(core::Epoch epoch, lat::BlockId mover);
  void record(sim::Simulator& sim, std::string what);

  void check_occupancy(sim::Simulator& sim);
  void check_connectivity(sim::Simulator& sim);
  void check_conservation(sim::Simulator& sim);
  void check_columns(sim::Simulator& sim);
  void check_contacts(sim::Simulator& sim);

  OracleOptions options_;
  Rng rng_;
  bool attached_ = false;
  size_t expected_blocks_ = 0;
  uint64_t mutations_seen_ = 0;
  uint64_t checks_run_ = 0;
  uint64_t hint_probes_ = 0;
  core::Epoch last_epoch_ = 0;
  std::vector<std::string> violations_;
  size_t suppressed_ = 0;
};

}  // namespace sb::check
