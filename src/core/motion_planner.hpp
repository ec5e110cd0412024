#pragma once
// The elected block's local motion choice, and with it the full dBO
// eligibility of Eqs (8)-(10).
//
// A block evaluates its distance by (a) the geometric metric of
// distance.hpp and (b) searching its sensed neighbourhood for a physically
// valid rule application. Candidates come in two tiers:
//
//   Tier 1 ("towards O", the paper's normal case): the subject's hop
//   strictly reduces its Manhattan distance to O AND the move's net
//   progress over all displaced blocks is positive. Each tier-1 hop
//   strictly decreases sum_b manhattan(b, O), so tier-1 activity can never
//   cycle.
//
//   Tier 2 ("repositioning"): when a block has no tier-1 move it may offer
//   a single-block, tabu-guarded sideways/backwards hop, reported with a
//   +kRepositionPenalty distance so any tier-1 candidate anywhere in the
//   system wins the election instead. Tier-2 hops realize the detours the
//   paper's example visibly performs (Figs 10-11 need 55 moves for an
//   11-cell path) - e.g. a block leaving the ladder's foot to climb the
//   outer lane. Termination is then enforced by the session's iteration
//   cap, sized per Remark 4 (O(N^2) hops).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/distance.hpp"
#include "core/metrics.hpp"
#include "core/tabu.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/rule_library.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace sb::core {

/// Tie-breaking between equally-good destinations.
enum class MoveTie {
  /// Prefer a destination that joins the path (aligned with O inside the
  /// I/O rectangle); then first in rule-library order. Default: this is
  /// what lets climbers peel into the path as soon as they draw level.
  kPreferEnterPath,
  /// First candidate in deterministic enumeration order.
  kFirst,
  /// Seeded random choice among the tied candidates.
  kRandom,
};

struct PlannerConfig {
  DistanceParams distance;
  MoveTie tie = MoveTie::kPreferEnterPath;
  /// Allow tier-2 repositioning candidates (on in the paper-faithful
  /// configuration; off restricts the system to strictly improving hops,
  /// which deadlocks on ladder-exhaustion patterns - bench_ablations
  /// quantifies this).
  bool allow_repositioning = true;
};

/// Sum over all blocks displaced by `app` of their Manhattan improvement
/// toward `output`. Tier-1 requires this to be positive; since the
/// subject's own hop contributes +1, helpers must not lose ground in
/// aggregate. This makes sum_b manhattan(b, O) a strictly decreasing
/// potential across tier-1 hops and rules out livelock.
[[nodiscard]] int32_t net_progress(const motion::RuleApplication& app,
                                   lat::Vec2 output);

/// Lemma 1(b) as a move filter: true when `app` would leave a currently
/// occupied path cell empty (a handover that refills the cell in the same
/// application is allowed) or would displace the block anchoring the input
/// cell. Such moves are never offered by the planner.
[[nodiscard]] bool leaves_path_gap(const motion::RuleApplication& app,
                                   const DistanceParams& params);

/// A block's local decision: its reported dBO and, when finite, the move
/// realizing the hop.
struct MoveDecision {
  /// Reported election distance: manhattan for tier-1 candidates,
  /// manhattan + kRepositionPenalty for tier-2, kInfiniteDistance when
  /// ineligible.
  int32_t distance = kInfiniteDistance;
  std::optional<motion::RuleApplication> move;
  /// True when the decision is a tier-2 repositioning hop.
  bool repositioning = false;

  [[nodiscard]] bool eligible() const { return move.has_value(); }
};

/// A block's own memo of its last decision, held in the block's program
/// (SmartBlockCode) and passed to MotionPlanner::evaluate by that block
/// only, so no two threads ever share one. Every block holds one, so the
/// decision is packed into 32 bytes: the move's rule, anchor and subject
/// index (a null rule: no move) beside its distance and tier, and
/// decision() rebuilds the MoveDecision.
struct PlannerMemo {
  PlannerMemo() = default;
  PlannerMemo(const MoveDecision& decided, uint64_t valid_at,
              bool window_bound);

  [[nodiscard]] MoveDecision decision() const;
  [[nodiscard]] bool eligible() const { return rule != nullptr; }
  /// The decided move; requires eligible().
  [[nodiscard]] motion::RuleApplication move() const;

  const motion::MotionRule* rule = nullptr;
  lat::Vec2 anchor;
  /// Grid version (lat::WorldView::version) the decision is valid at.
  uint64_t version = 0;
  int32_t distance = kInfiniteDistance;
  /// RuleApplication::subject_move; rules have a handful of moves.
  uint8_t subject_move = 0;
  bool repositioning = false;
  /// The decision depended only on the block's sensed window, so it may be
  /// served again while no grid change comes near the block.
  bool window_only = false;
};
static_assert(sizeof(PlannerMemo) == 32, "PlannerMemo is packed to 32 bytes");

/// Immutable after construction: one planner serves every block of a
/// session on every shard thread.
class MotionPlanner {
 public:
  MotionPlanner(const motion::RuleLibrary* rules, PlannerConfig config);

  [[nodiscard]] const PlannerConfig& config() const { return config_; }

  /// Evaluates dBO for the block at `pos`. `tabu` guards tier-2 candidates
  /// (may be null to disable) with expiry relative to `epoch`; `metrics`
  /// (optional) counts the evaluation (Remark 2); `rng` is consulted only
  /// for MoveTie::kRandom.
  ///
  /// A block whose 8-cell ring no rule accepts (RuleLibrary::may_move) has
  /// no move, so it gets Eq (9)'s ineligible decision at once, with no
  /// sensed window or rule search; on a compact blob that is almost every
  /// block.
  ///
  /// `memo` (optional) is the calling block's own memo; the evaluation's
  /// decision is left in it. A block's decision is a pure function of its
  /// sensed window (plus the globally maintained connectivity invariant),
  /// and one epoch changes the grid by a single rule application, so the
  /// memo's decision is served again when the grid is unchanged, or when
  /// exactly one mutation happened and none of its journaled cells lies
  /// within the dependence radius of `pos`. Decisions that consulted the
  /// tabu list, a single-line rejection or a global connectivity flood are
  /// never served again (they depend on more than the window), nor is any
  /// decision under MoveTie::kRandom, so random tie-breaks keep re-rolling.
  /// The Remark-2 counter still advances on every call: the distributed
  /// algorithm logically computes dBO each activation; the ring test and
  /// the memo only remove redundant work.
  [[nodiscard]] MoveDecision evaluate(const sim::World& world, lat::Vec2 pos,
                                      const TabuList* tabu, uint32_t epoch,
                                      ReconfigMetrics* metrics, Rng* rng,
                                      PlannerMemo* memo = nullptr) const;

  /// All physically valid applications whose subject is the block at `pos`,
  /// regardless of whether they improve the distance. Exposed for tests and
  /// the baselines.
  [[nodiscard]] std::vector<motion::RuleApplication> legal_moves(
      const sim::World& world, lat::Vec2 pos) const;

  /// Evaluations served from a memo since construction (diagnostics).
  /// Blocks the ring test rejects never reach their memo.
  [[nodiscard]] uint64_t cache_hits() const { return cache_hits_; }

 private:
  /// legal_moves, also reporting whether the single-line rule rejected a
  /// candidate (such a rejection depends on global row/column totals) and
  /// whether a connectivity probe needed a flood.
  [[nodiscard]] std::vector<motion::RuleApplication> legal_moves(
      const sim::World& world, lat::Vec2 pos, bool& single_line_rejected,
      bool& flooded) const;

  [[nodiscard]] std::optional<motion::RuleApplication> pick(
      std::vector<motion::RuleApplication>& candidates, Rng* rng) const;

  /// True when `memo`'s decision still holds for the block at `pos`.
  [[nodiscard]] bool memo_holds(const PlannerMemo& memo, lat::WorldView view,
                                lat::Vec2 pos) const;

  const motion::RuleLibrary* rules_;
  PlannerConfig config_;
  /// Chebyshev radius of grid cells a decision may depend on: the sensed
  /// window (sensing radius) plus one ring for the local connectivity rule.
  int32_t dependence_radius_ = 0;
  /// Relaxed atomic: shard workers evaluate through one planner at once.
  mutable util::ParallelCounter cache_hits_;
};

}  // namespace sb::core
