#include "core/motion_planner.hpp"

#include <algorithm>
#include <cstdlib>

#include "lattice/connectivity.hpp"
#include "lattice/ring.hpp"
#include "util/assert.hpp"

namespace sb::core {

using motion::move_scratch;

int32_t net_progress(const motion::RuleApplication& app, lat::Vec2 output) {
  auto& moves = move_scratch();
  app.world_moves_into(moves);
  int32_t net = 0;
  for (const auto& [from, to] : moves) {
    net += manhattan(from, output) - manhattan(to, output);
  }
  return net;
}

PlannerMemo::PlannerMemo(const MoveDecision& decided, uint64_t valid_at,
                         bool window_bound)
    : version(valid_at),
      distance(decided.distance),
      repositioning(decided.repositioning),
      window_only(window_bound) {
  if (decided.move.has_value()) {
    SB_ASSERT(decided.move->subject_move <= UINT8_MAX,
              "subject index past the memo's byte");
    rule = decided.move->rule;
    anchor = decided.move->anchor;
    subject_move = static_cast<uint8_t>(decided.move->subject_move);
  }
}

MoveDecision PlannerMemo::decision() const {
  MoveDecision rebuilt;
  rebuilt.distance = distance;
  if (eligible()) rebuilt.move = move();
  rebuilt.repositioning = repositioning;
  return rebuilt;
}

motion::RuleApplication PlannerMemo::move() const {
  SB_ASSERT(eligible(), "the memo holds no move");
  return motion::RuleApplication{rule, anchor, subject_move};
}

MotionPlanner::MotionPlanner(const motion::RuleLibrary* rules,
                             PlannerConfig config)
    : rules_(rules), config_(config) {
  SB_EXPECTS(rules_ != nullptr && !rules_->empty(),
             "the planner needs a non-empty rule library");
  // A decision reads the sensed window (sensing radius) plus one extra ring
  // for the 8-neighborhood connectivity rule around vacated cells.
  dependence_radius_ = rules_->sensing_radius() + 1;
}

bool leaves_path_gap(const motion::RuleApplication& app,
                     const DistanceParams& params) {
  auto& moves = move_scratch();
  app.world_moves_into(moves);
  for (const auto& [from, to] : moves) {
    // The Root block itself never moves: the root role does not migrate in
    // this implementation, so no rule may displace the block on I - not
    // even a handover that would refill the cell.
    if (from == params.input) return true;
    if (!is_path_cell(from, params)) continue;
    // Lemma 1(b): a path cell, once occupied, stays occupied. A handover
    // that refills the cell within the same rule application is fine.
    bool refilled = false;
    for (const auto& [from2, to2] : moves) {
      refilled |= to2 == from;
    }
    if (!refilled) return true;
  }
  return false;
}

std::vector<motion::RuleApplication> MotionPlanner::legal_moves(
    const sim::World& world, lat::Vec2 pos) const {
  bool single_line_rejected = false;
  bool flooded = false;
  return legal_moves(world, pos, single_line_rejected, flooded);
}

std::vector<motion::RuleApplication> MotionPlanner::legal_moves(
    const sim::World& world, lat::Vec2 pos, bool& single_line_rejected,
    bool& flooded) const {
  const lat::WorldView view = world.view();
  SB_EXPECTS(view.occupied(pos), "no block at ", pos);
  // Rule matching runs on the block's sensed window (local knowledge). The
  // window mirrors the grid exactly, so only the global Remark-1
  // constraints remain for the physics filter: no single line and no
  // disconnection — both O(1) via the grid's row/column counts and the
  // local connectivity rule (with the stamped flood as fallback).
  const lat::Neighborhood window = world.sense(pos);
  std::vector<motion::RuleApplication> candidates =
      motion::enumerate_applications(*rules_, window, pos);
  std::erase_if(candidates, [&](const motion::RuleApplication& app) {
    auto& moves = move_scratch();
    app.world_moves_into(moves);
    if (view.single_line_after_moves(moves.data(), moves.size())) {
      single_line_rejected = true;
      return true;
    }
    return !view.connected_after_moves(moves.data(), moves.size(), &flooded);
  });
  return candidates;
}

std::optional<motion::RuleApplication> MotionPlanner::pick(
    std::vector<motion::RuleApplication>& candidates, Rng* rng) const {
  if (candidates.empty()) return std::nullopt;
  switch (config_.tie) {
    case MoveTie::kFirst:
      return candidates.front();
    case MoveTie::kRandom:
      SB_EXPECTS(rng != nullptr, "MoveTie::kRandom needs an RNG");
      return candidates[rng->pick_index(candidates)];
    case MoveTie::kPreferEnterPath: {
      const auto enters_path = [&](const motion::RuleApplication& app) {
        return is_path_cell(app.subject_to(), config_.distance);
      };
      const auto it =
          std::find_if(candidates.begin(), candidates.end(), enters_path);
      return it != candidates.end() ? *it : candidates.front();
    }
  }
  SB_UNREACHABLE();
}

bool MotionPlanner::memo_holds(const PlannerMemo& memo, lat::WorldView view,
                               lat::Vec2 pos) const {
  if (!memo.window_only) return false;
  const uint64_t version = view.version();
  if (version != memo.version) {
    // One elected hop per epoch is the common case: exactly one mutation,
    // whose touched cells the grid journaled. The decision holds when none
    // of them lies within the dependence radius; anything else (setup
    // bursts, churn beside a move, a journal overflow) recomputes.
    if (version != memo.version + 1 || view.last_change_version() != version ||
        view.last_change_overflowed()) {
      return false;
    }
    for (size_t i = 0; i < view.last_change_count(); ++i) {
      const lat::Vec2 cell = view.last_change_cells()[i];
      if (std::abs(cell.x - pos.x) <= dependence_radius_ &&
          std::abs(cell.y - pos.y) <= dependence_radius_) {
        return false;
      }
    }
  }
  // The single-line test reads global row/column totals, which a far move
  // can shift; re-check the memo's move (O(1)). (Decisions whose
  // computation *rejected* a candidate on the single-line rule are never
  // window-only.)
  if (memo.eligible()) {
    auto& moves = move_scratch();
    memo.move().world_moves_into(moves);
    if (view.single_line_after_moves(moves.data(), moves.size())) return false;
  }
  return true;
}

MoveDecision MotionPlanner::evaluate(const sim::World& world, lat::Vec2 pos,
                                     const TabuList* tabu, uint32_t epoch,
                                     ReconfigMetrics* metrics, Rng* rng,
                                     PlannerMemo* memo) const {
  if (metrics != nullptr) ++metrics->distance_computations;

  const lat::WorldView view = world.view();
  // No rule accepts the block's ring: no move, Eq (9).
  SB_EXPECTS(view.in_bounds(pos), "evaluation off the surface at ", pos);
  if (!rules_->may_move(lat::ring_mask(view.occupancy_row(pos.y + 1),
                                       view.occupancy_row(pos.y),
                                       view.occupancy_row(pos.y - 1),
                                       pos.x))) {
    if (memo != nullptr) *memo = PlannerMemo{};
    return MoveDecision{};
  }

  if (memo != nullptr && memo_holds(*memo, view, pos)) {
    ++cache_hits_;
    memo->version = view.version();  // the next move is judged from here
    return memo->decision();
  }

  // Track whether this evaluation depended on anything beyond the block's
  // sensed window: a global connectivity flood, a single-line rejection, or
  // the (epoch-expiring) tabu list. Such decisions are not served again.
  bool flooded = false;
  bool single_line_rejected = false;
  bool tabu_dependent = false;

  MoveDecision decision;
  const int32_t base = base_distance(pos, config_.distance);
  if (base == kInfiniteDistance) {  // Eq (8): frozen
    if (memo != nullptr) {
      *memo = PlannerMemo{decision, view.version(),
                          config_.tie != MoveTie::kRandom};
    }
    return decision;
  }

  const lat::Vec2 output = config_.distance.output;
  const int32_t here = manhattan(pos, output);

  std::vector<motion::RuleApplication> legal =
      legal_moves(world, pos, single_line_rejected, flooded);

  // -- tier 1: hops towards O with positive net progress --------------------
  std::vector<motion::RuleApplication> improving;
  int32_t best = here;
  for (const motion::RuleApplication& app : legal) {
    const int32_t there = manhattan(app.subject_to(), output);
    if (there >= here) continue;  // the hop itself must approach O
    if (net_progress(app, output) <= 0) continue;  // anti-livelock potential
    if (leaves_path_gap(app, config_.distance)) continue;  // Lemma 1(b)
    if (there > best) continue;
    if (there < best) {
      best = there;
      improving.clear();
    }
    improving.push_back(app);
  }
  if (auto move = pick(improving, rng)) {
    decision.distance = base;  // Eq (10)
    decision.move = std::move(move);
  } else if (config_.allow_repositioning) {
    // -- tier 2: tabu-guarded single-block repositioning --------------------
    // Any decision the tier-2 scan produced over real candidates is bound
    // to the tabu/epoch context it was computed in — even a null-tabu one
    // must not be replayed to a later call that passes a tabu list.
    tabu_dependent = !legal.empty();
    std::vector<motion::RuleApplication> detours;
    int32_t best_detour = kInfiniteDistance;
    for (const motion::RuleApplication& app : legal) {
      if (app.rule->moves().size() != 1) continue;  // never displace helpers
      if (leaves_path_gap(app, config_.distance)) continue;  // Lemma 1(b)
      const lat::Vec2 to = app.subject_to();
      if (tabu != nullptr && tabu->contains(to, epoch)) continue;
      const int32_t there = manhattan(to, output);
      if (there > best_detour) continue;
      if (there < best_detour) {
        best_detour = there;
        detours.clear();
      }
      detours.push_back(app);
    }
    if (auto move = pick(detours, rng)) {
      decision.distance = base + kRepositionPenalty;
      decision.move = std::move(move);
      decision.repositioning = true;
    }
  }
  // (no move at all -> Eq (9): +inf)

  if (memo != nullptr) {
    *memo = PlannerMemo{
        decision, view.version(),
        config_.tie != MoveTie::kRandom && !tabu_dependent &&
            !single_line_rejected && !flooded};
  }
  return decision;
}

}  // namespace sb::core
