#pragma once
// SmartBlockCode: the per-block program implementing the paper's
// distributed iterative algorithm (§V).
//
// Each Algorithm-1 iteration ("epoch" = the paper's IT counter) runs a
// diffusing computation in the style of Dijkstra & Scholten rooted at the
// block on the input cell I:
//
//   1. The Root broadcasts Activate to its neighbours. The first Activate a
//      block receives makes the sender its *father*; the block evaluates
//      its distance dBO (Eqs 8-10, via the MotionPlanner) and re-broadcasts
//      Activate to its remaining sides. Later Activates get an immediate
//      non-engaged Ack.
//   2. When a block has an Ack for every Activate it sent, it reports the
//      minimum (distance, id) of its subtree to its father and becomes
//      inactive. When the Root's count reaches zero it knows the global
//      minimum.
//   3. The Root routes a Select message down the recorded father/son path;
//      the elected block answers with an ElectedAck routed up the tree and
//      performs its one-cell hop towards O.
//   4. The hop's completion is flooded as MoveDone; on receiving it the
//      Root starts epoch IT+1, or halts when the hop landed on O
//      (termination condition of Algorithm 1).
//
// The code is fully message-driven: a block only ever uses its own
// registers (position, I, O), its lateral contacts, and its bounded sensing
// window. The optional fault-tolerance extension (paper §VI future work)
// adds ack timeouts and election restarts.

#include <functional>
#include <memory>
#include <optional>

#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/motion_planner.hpp"
#include "sim/module.hpp"
#include "sim/simulator.hpp"

namespace sb::core {

/// Tie-breaking among blocks that report the same minimal distance
/// (the paper's Root "selects randomly one block"; deterministic policies
/// are provided for reproducible tests).
enum class ElectionTie {
  kFirst,     // keep the first report (deterministic)
  kLowestId,  // prefer the smaller block id (deterministic)
  kRandom,    // per-block seeded coin flips (the paper's choice)
};

struct AlgorithmConfig {
  lat::Vec2 input;
  lat::Vec2 output;
  ElectionTie election_tie = ElectionTie::kFirst;
  /// Reproduce the paper's Eq (6) initial ShortestDistance = |I-O| instead
  /// of +inf. With Eq (6), configurations where every block is farther from
  /// O than I is are reported as blocked (see DESIGN.md note).
  bool paper_eq6_init = false;
  /// Fault-tolerance extension: 0 disables. Otherwise the number of ticks
  /// to wait for outstanding Acks (any engaged block) or for the elected
  /// block's MoveDone (the Root) before forcing progress / restarting the
  /// election.
  sim::Ticks ack_timeout = 0;
  /// Root-side cap on Algorithm-1 iterations; reaching it reports the
  /// reconfiguration as blocked. Sized by the session per Remark 4
  /// (O(N^2) hops suffice under the paper's assumptions).
  uint32_t max_iterations = UINT32_MAX;
  /// Capacity of the per-block tabu list guarding tier-2 detours (its
  /// entries expire after kTabuHorizon epochs).
  uint32_t tabu_capacity = 8;
};

/// State shared between the session driver and all block codes:
/// metrics plus an optional observer invoked after every elected hop.
struct SessionShared {
  ReconfigMetrics metrics;
  std::function<void(Epoch, lat::BlockId mover,
                     const motion::RuleApplication&)>
      move_listener;
};

class SmartBlockCode final : public sim::Module {
 public:
  /// `config` and `shared` are the session's and must outlive the block.
  SmartBlockCode(lat::BlockId id, bool is_root, const MotionPlanner* planner,
                 const AlgorithmConfig* config, SessionShared* shared);

  [[nodiscard]] bool is_root() const { return is_root_; }
  [[nodiscard]] Epoch epoch() const { return epoch_; }

  // -- sim::Module hooks ----------------------------------------------------
  void on_start() override;
  void on_message(lat::Direction from_side, const msg::Message& m) override;
  void on_timer(uint64_t tag) override;
  void on_motion_complete() override;
  void on_motion_rejected() override;

 private:
  enum class Phase { kIdle, kEngaged, kDone };

  // Timer tags: epoch << 2 | kind.
  enum TimerKind : uint64_t { kAckTimer = 1, kRootMoveTimer = 2 };
  [[nodiscard]] static uint64_t timer_tag(Epoch epoch, TimerKind kind) {
    return (static_cast<uint64_t>(epoch) << 2) | kind;
  }

  void handle_activate(lat::Direction from_side, const ActivateMsg& m);
  void handle_ack(lat::Direction from_side, const AckMsg& m);
  void handle_son_notify(lat::Direction from_side, const SonNotifyMsg& m);
  void handle_select(const SelectMsg& m);
  void handle_elected_ack(const ElectedAckMsg& m);
  void handle_move_done(lat::Direction from_side, const MoveDoneMsg& m);

  /// Root only: begins the election for the current epoch.
  void start_election();
  /// Sends Activates to all live neighbours except `skip`; returns the
  /// count and arms the fault-mode contact timer.
  int broadcast_activates(std::optional<lat::Direction> skip);
  /// Folds a (distance, id) report into the local minimum; `via` is the
  /// side it arrived from (nullopt = the block itself).
  void merge_report(int32_t dist, lat::BlockId id,
                    std::optional<lat::Direction> via);
  /// Called when the last pending Ack arrives (or the timeout forces it).
  void finish_aggregation();
  void root_conclude_election();
  void become_elected();
  /// Root only: ends the epoch once its hop has landed (MoveDone).
  void root_advance(bool reached_output);
  void reset_for_epoch(Epoch epoch);

  [[nodiscard]] ActivateMsg make_activate() const;

  // -- immutable configuration ----------------------------------------------
  bool is_root_;
  const MotionPlanner* planner_;
  const AlgorithmConfig* config_;
  SessionShared* shared_;
  /// Created by on_start only for ElectionTie::kRandom / MoveTie::kRandom.
  std::unique_ptr<Rng> tie_rng_;
  TabuList tabu_;

  // -- per-epoch election state ----------------------------------------------
  Epoch epoch_ = 0;
  Phase phase_ = Phase::kIdle;
  std::optional<lat::Direction> father_side_;
  int pending_acks_ = 0;
  bool acks_closed_ = false;  // aggregation finished for this epoch
  /// Fault mode: sides on which an Activate got no reply of any kind
  /// within the timeout - the neighbour is dead; skipped from then on.
  std::array<bool, lat::kDirectionCount> dead_sides_{};
  /// Fault mode: sides still owing their initial contact reply this epoch.
  std::array<bool, lat::kDirectionCount> awaiting_contact_{};
  /// Fault mode: renewals of the ack timer while live subtrees report.
  int ack_timer_renewals_ = 0;
  static constexpr int kMaxAckTimerRenewals = 20;
  int32_t best_dist_ = kInfiniteDistance;
  lat::BlockId best_id_;
  std::optional<lat::Direction> best_via_;  // son subtree holding the best
  /// This epoch's decision, kept across epochs as the planner's memo.
  PlannerMemo memo_;

  // -- root orchestration -----------------------------------------------------
  bool advanced_this_epoch_ = false;

  // -- flood deduplication ----------------------------------------------------
  Epoch move_done_seen_ = 0;

  // -- root: consecutive elections that found no eligible block ---------------
  uint32_t empty_elections_ = 0;
};

// One program per block, and the election flood touches every one, so its
// size is a per-block cost of large worlds. Every program is built in a
// fixed slot of the simulator's (Simulator::add_module, which asserts the
// fit for any module type); a big world's drain prefetches whole slots, and
// a larger slot would stretch every block of a 10^5-block world. Asserted
// here too, so a field that outgrows it fails where it is added.
static_assert(sizeof(SmartBlockCode) <= sim::Simulator::kModuleSlotBytes,
              "SmartBlockCode outgrew its module slot");

}  // namespace sb::core
