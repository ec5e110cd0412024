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
#include <memory>
#include <optional>
#include <vector>

#include "core/distance.hpp"
#include "core/metrics.hpp"
#include "core/tabu.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/rule_library.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
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
  /// sensed window, rule search or memo entry; on a compact blob that is
  /// almost every block.
  ///
  /// Other evaluations are memoized: a block's decision is a pure function
  /// of its sensed window (plus the globally maintained connectivity
  /// invariant), and one epoch changes the grid by a single rule
  /// application, so the planner re-computes only for blocks whose window
  /// overlaps the cells the last move touched. Decisions that consulted
  /// the tabu list or needed a global connectivity flood are never cached
  /// (they depend on more than the window), and MoveTie::kRandom disables
  /// the cache entirely so repeated evaluations keep re-rolling. The
  /// Remark-2 counter still advances on every call — the distributed
  /// algorithm logically computes dBO each activation; the ring test and
  /// the cache only remove redundant work.
  [[nodiscard]] MoveDecision evaluate(const sim::World& world, lat::Vec2 pos,
                                      const TabuList* tabu, uint32_t epoch,
                                      ReconfigMetrics* metrics,
                                      Rng* rng) const;

  /// All physically valid applications whose subject is the block at `pos`,
  /// regardless of whether they improve the distance. Exposed for tests and
  /// the baselines.
  [[nodiscard]] std::vector<motion::RuleApplication> legal_moves(
      const sim::World& world, lat::Vec2 pos) const;

  /// Evaluation-cache hits since construction (diagnostics). Blocks the
  /// ring test rejects never reach the cache.
  [[nodiscard]] uint64_t cache_hits() const { return cache_hits_; }

 private:
  struct CacheEntry {
    uint32_t stamp = 0;  ///< matches cache_stamp_ when live
    lat::Vec2 pos;       ///< position the decision was computed for
    MoveDecision decision;
  };
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  /// Block `id`'s cache entry, live or stale; nullptr when it has none.
  [[nodiscard]] CacheEntry* cached(lat::BlockId id) const;
  /// Stores a live entry for block `id`, adding one on its first store.
  void store(lat::BlockId id, lat::Vec2 pos,
             const MoveDecision& decision) const;

  [[nodiscard]] std::optional<motion::RuleApplication> pick(
      std::vector<motion::RuleApplication>& candidates, Rng* rng) const;

  /// Brings the cache up to date with the world: no-op when unchanged,
  /// targeted invalidation around the last move's cells when exactly one
  /// mutation happened, full flush otherwise.
  void sync_cache(lat::WorldView view) const;
  void invalidate_around(lat::WorldView view, lat::Vec2 cell) const;

  const motion::RuleLibrary* rules_;
  PlannerConfig config_;
  /// Chebyshev radius of grid cells a decision may depend on: the sensed
  /// window (sensing radius) plus one ring for the local connectivity rule.
  int32_t dependence_radius_ = 0;

  // Decision cache (mutable: evaluate() is logically const). One planner
  // serves one session on one thread. `slot_` maps a block id to its index
  // in `entries_` (kNoEntry when it has none); entries are appended only
  // when a block's decision is first stored, so the cache grows with the
  // blocks that can move, not with the largest id.
  mutable std::vector<uint32_t> slot_;
  mutable std::vector<CacheEntry> entries_;
  mutable uint64_t cache_grid_version_ = 0;
  mutable uint32_t cache_stamp_ = 1;
  mutable uint64_t cache_hits_ = 0;
  /// Candidates rejected by the single-line rule; evaluations that saw such
  /// a rejection depend on global row/column totals and are not cached.
  mutable uint64_t single_line_rejections_ = 0;
};

/// One MotionPlanner per simulator shard, all configured identically. A
/// decision is a pure function of the block's sensed window, so every
/// planner computes identical answers — the split exists because evaluate()
/// mutates the memo cache, and under the sharded simulator evaluations run
/// concurrently across shard workers. Each shard only ever touches its own
/// planner (sim::Simulator::shard_for routes by block position); a classic
/// single-loop session gets a set of size one.
class PlannerSet {
 public:
  PlannerSet(const motion::RuleLibrary* rules, PlannerConfig config,
             size_t shard_count);

  [[nodiscard]] const MotionPlanner& for_shard(size_t shard) const {
    SB_EXPECTS(shard < planners_.size(), "no planner for shard ", shard);
    return *planners_[shard];
  }

 private:
  std::vector<std::unique_ptr<MotionPlanner>> planners_;
};

}  // namespace sb::core
