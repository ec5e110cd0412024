// Tests for the distance metric (Eqs 6, 8-10) and the motion planner's
// two-tier eligibility.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "core/motion_planner.hpp"
#include "core/tabu.hpp"
#include "lattice/ring.hpp"
#include "lattice/scenario.hpp"

namespace sb::core {
namespace {

using lat::BlockId;
using lat::Vec2;

sim::World make_world(std::initializer_list<Vec2> cells, int32_t w = 8,
                      int32_t h = 12) {
  sim::World world(w, h, motion::RuleLibrary::standard());
  uint32_t id = 1;
  for (const Vec2 cell : cells) world.grid().place(BlockId{id++}, cell);
  return world;
}

DistanceParams fig10_params() {
  DistanceParams params;
  params.input = {1, 0};
  params.output = {1, 10};
  return params;
}

// ---------------------------------------------------------------------------
// base_distance (Eqs 8 and 10)
// ---------------------------------------------------------------------------

TEST(Distance, Eq10ManhattanForUnalignedBlocks) {
  const DistanceParams params = fig10_params();
  EXPECT_EQ(base_distance({2, 3}, params), 1 + 7);
  EXPECT_EQ(base_distance({0, 0}, params), 1 + 10);
  EXPECT_EQ(base_distance({4, 10}, params), 3);
}

TEST(Distance, Eq8FreezesAlignedInsideRect) {
  const DistanceParams params = fig10_params();
  // On the I/O column, inside the rectangle, more than one hop away.
  EXPECT_EQ(base_distance({1, 3}, params), kInfiniteDistance);
  EXPECT_EQ(base_distance({1, 0}, params), kInfiniteDistance);  // at I
}

TEST(Distance, OneHopExceptionNotFrozen) {
  // §V.A: a block "at one hop of O" may move directly onto O, so its
  // distance stays 1 even though it is aligned with O.
  const DistanceParams params = fig10_params();
  EXPECT_EQ(base_distance({1, 9}, params), 1);   // directly below O
  EXPECT_EQ(base_distance({0, 10}, params), 1);  // west of O (O's row)
  EXPECT_EQ(base_distance({2, 10}, params), 1);  // east of O
}

TEST(Distance, AlignedOutsideRectNotFrozen) {
  // Aligned with O but outside the I/O rectangle: still eligible
  // (DESIGN.md interpretation note 1).
  const DistanceParams params = fig10_params();
  EXPECT_EQ(base_distance({1, 11}, params), 1);   // above O, outside rect
  EXPECT_EQ(base_distance({4, 10}, params), 3);   // O's row, outside rect
}

TEST(Distance, GeneralRectFreezing) {
  DistanceParams params;
  params.input = {5, 1};
  params.output = {2, 7};  // left-up oriented graph, as in Fig 2
  // O's column inside the rect: frozen.
  EXPECT_EQ(base_distance({2, 4}, params), kInfiniteDistance);
  // O's row inside the rect: frozen.
  EXPECT_EQ(base_distance({4, 7}, params), kInfiniteDistance);
  // O's column *outside* the rect (below I's row): not frozen.
  EXPECT_EQ(base_distance({2, 0}, params), 7);
  // Interior unaligned cell: plain Manhattan.
  EXPECT_EQ(base_distance({4, 4}, params), 2 + 3);
}

TEST(Distance, FreezingCanBeDisabled) {
  DistanceParams params = fig10_params();
  params.freeze_aligned = false;
  EXPECT_EQ(base_distance({1, 3}, params), 7);
}

TEST(Distance, AtOutputIsZero) {
  EXPECT_EQ(base_distance({1, 10}, fig10_params()), 0);
}

TEST(Distance, Eq6InitialEstimate) {
  EXPECT_EQ(initial_shortest_distance({1, 0}, {1, 10}), 10);
  EXPECT_EQ(initial_shortest_distance({5, 1}, {2, 7}), 9);
}

// ---------------------------------------------------------------------------
// net_progress
// ---------------------------------------------------------------------------

TEST(NetProgress, SlideTowardOutputIsPlusOne) {
  const sim::World world = make_world({{2, 3}, {2, 2}, {3, 2}, {1, 2}});
  const motion::MotionRule* rule = world.rules().find("slide_WS");
  ASSERT_NE(rule, nullptr);
  // (2,3) slides west toward the output column.
  const motion::RuleApplication app{rule, {2, 3}, 0};
  EXPECT_EQ(net_progress(app, {1, 10}), 1);
}

TEST(NetProgress, CarryBothImprovingIsPlusTwo) {
  const sim::World world = make_world({{2, 4}, {2, 3}, {1, 4}});
  const motion::MotionRule* rule = world.rules().find("carry_NW");
  ASSERT_NE(rule, nullptr);
  const motion::RuleApplication app{rule, {2, 4}, 0};  // subject north
  EXPECT_EQ(net_progress(app, {1, 10}), 2);
}

TEST(NetProgress, EvictingPathBlockSidewaysIsZero) {
  // The livelock pattern: a pusher enters the path cell while the occupant
  // is evicted sideways - subject +1, evicted -1.
  const sim::World world = make_world({{0, 3}, {1, 3}, {1, 2}});
  const motion::MotionRule* rule = world.rules().find("carry_ES");
  ASSERT_NE(rule, nullptr);
  // Subject move index 1 = the pusher (west cell).
  const motion::RuleApplication app{rule, {1, 3}, 1};
  EXPECT_EQ(app.subject_from(), Vec2(0, 3));
  EXPECT_EQ(net_progress(app, {1, 10}), 0);
}

// ---------------------------------------------------------------------------
// MotionPlanner.evaluate
// ---------------------------------------------------------------------------

MotionPlanner make_planner(const sim::World& world,
                           MoveTie tie = MoveTie::kPreferEnterPath,
                           bool reposition = true) {
  PlannerConfig config;
  config.distance = fig10_params();
  config.tie = tie;
  config.allow_repositioning = reposition;
  return MotionPlanner(&world.rules(), config);
}

TEST(Planner, FrozenBlockIneligible) {
  const sim::World world = make_world({{1, 3}, {1, 2}, {2, 2}, {2, 3}});
  const MotionPlanner planner = make_planner(world);
  const MoveDecision decision =
      planner.evaluate(world, {1, 3}, nullptr, 0, nullptr, nullptr);
  EXPECT_FALSE(decision.eligible());
  EXPECT_EQ(decision.distance, kInfiniteDistance);
}

TEST(Planner, Tier1ClimberOnLane) {
  // Lane climber beside the path column: slide north is strictly improving.
  const sim::World world =
      make_world({{2, 2}, {1, 2}, {1, 3}, {1, 1}, {2, 1}});
  const MotionPlanner planner = make_planner(world);
  const MoveDecision decision =
      planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr);
  ASSERT_TRUE(decision.eligible());
  EXPECT_FALSE(decision.repositioning);
  EXPECT_EQ(decision.distance, 1 + 8);  // Eq (10)
  EXPECT_EQ(decision.move->subject_to(), Vec2(2, 3));
}

TEST(Planner, PrefersEnteringPathOnTie) {
  // A block level with the path top: entering the path (west) and climbing
  // (north) both reduce the distance by one; kPreferEnterPath picks west.
  const sim::World world =
      make_world({{2, 3}, {2, 2}, {1, 2}, {1, 1}, {2, 1}});
  // Path cells (1,1),(1,2) occupied; (1,3) empty; (2,3) climber.
  const MotionPlanner planner = make_planner(world);
  const MoveDecision decision =
      planner.evaluate(world, {2, 3}, nullptr, 0, nullptr, nullptr);
  ASSERT_TRUE(decision.eligible());
  EXPECT_EQ(decision.move->subject_to(), Vec2(1, 3));
}

TEST(Planner, CountsDistanceComputations) {
  const sim::World world = make_world({{2, 2}, {1, 2}, {1, 1}, {2, 1}});
  const MotionPlanner planner = make_planner(world);
  ReconfigMetrics metrics;
  (void)planner.evaluate(world, {2, 2}, nullptr, 0, &metrics, nullptr);
  (void)planner.evaluate(world, {2, 1}, nullptr, 0, &metrics, nullptr);
  EXPECT_EQ(metrics.distance_computations, 2u);
}

TEST(Planner, RejectsZeroNetProgressEviction) {
  // The original livelock configuration: pusher at (0,3) would enter the
  // path by evicting the path block sideways. Must be ineligible (no other
  // improving move, and tier-2 excludes helper-displacing rules).
  const sim::World world = make_world({{0, 3}, {1, 3}, {1, 2}, {1, 1},
                                       {2, 1}, {2, 2}});
  const MotionPlanner planner = make_planner(world);
  TabuList tabu;
  const MoveDecision decision =
      planner.evaluate(world, {0, 3}, &tabu, 0, nullptr, nullptr);
  if (decision.eligible()) {
    // Any offered move must be a tier-2 single-block detour, never the
    // eviction.
    EXPECT_TRUE(decision.repositioning);
    EXPECT_EQ(decision.move->world_moves().size(), 1u);
  }
}

TEST(Planner, Tier2OffersDetourWhenStuck) {
  // A block with no improving move but a legal sideways slide.
  // Row of three on y=4 against the west wall... use: block at (0,4) with
  // path beside; its only moves go south along the wall.
  const sim::World world =
      make_world({{0, 4}, {1, 4}, {1, 3}, {1, 2}, {2, 2}});
  const MotionPlanner planner = make_planner(world);
  TabuList tabu;
  PlannerMemo memo;
  const MoveDecision decision =
      planner.evaluate(world, {0, 4}, &tabu, 0, nullptr, nullptr, &memo);
  ASSERT_TRUE(decision.eligible());
  EXPECT_TRUE(decision.repositioning);
  EXPECT_GE(decision.distance, kRepositionPenalty);
  EXPECT_EQ(decision.move->subject_to(), Vec2(0, 3));
  EXPECT_FALSE(memo.window_only);  // bound to the tabu list and epoch
}

TEST(Planner, Tier2RespectsTabu) {
  const sim::World world =
      make_world({{0, 4}, {1, 4}, {1, 3}, {1, 2}, {2, 2}});
  const MotionPlanner planner = make_planner(world);
  TabuList tabu;
  tabu.push({0, 3});  // the only detour destination is tabu
  const MoveDecision decision =
      planner.evaluate(world, {0, 4}, &tabu, 0, nullptr, nullptr);
  EXPECT_FALSE(decision.eligible());
}

TEST(Planner, Tier2CanBeDisabled) {
  const sim::World world =
      make_world({{0, 4}, {1, 4}, {1, 3}, {1, 2}, {2, 2}});
  const MotionPlanner planner =
      make_planner(world, MoveTie::kPreferEnterPath, /*reposition=*/false);
  const MoveDecision decision =
      planner.evaluate(world, {0, 4}, nullptr, 0, nullptr, nullptr);
  EXPECT_FALSE(decision.eligible());  // Eq (9) strict
}

TEST(Planner, RandomTieIsSeedStable) {
  const sim::World world =
      make_world({{2, 3}, {2, 2}, {1, 2}, {1, 1}, {2, 1}});
  const MotionPlanner planner = make_planner(world, MoveTie::kRandom);
  Rng rng_a(9);
  Rng rng_b(9);
  PlannerMemo memo;  // never served: random ties re-roll every time
  const MoveDecision a =
      planner.evaluate(world, {2, 3}, nullptr, 0, nullptr, &rng_a, &memo);
  const MoveDecision b =
      planner.evaluate(world, {2, 3}, nullptr, 0, nullptr, &rng_b, &memo);
  ASSERT_TRUE(a.eligible());
  ASSERT_TRUE(b.eligible());
  EXPECT_EQ(a.move->subject_to(), b.move->subject_to());
  EXPECT_EQ(planner.cache_hits(), 0u);
}

/// A world holding the 3x3 square on x, y in [2, 4]; its centre (3,3) has
/// all eight neighbours.
sim::World square_world(motion::RuleLibrary rules) {
  sim::World world(8, 12, std::move(rules));
  uint32_t id = 1;
  for (int32_t y = 2; y <= 4; ++y) {
    for (int32_t x = 2; x <= 4; ++x) world.grid().place(BlockId{id++}, {x, y});
  }
  return world;
}

TEST(Planner, BoxedInBlockIsIneligibleWithoutTheMemo) {
  // No standard rule can move a boxed-in block, and the ring test says so
  // before the memo is consulted.
  const sim::World world = square_world(motion::RuleLibrary::standard());
  const MotionPlanner planner = make_planner(world);
  ReconfigMetrics metrics;
  PlannerMemo memo;
  for (uint64_t call = 1; call <= 3; ++call) {
    const MoveDecision decision = planner.evaluate(
        world, {3, 3}, nullptr, 0, &metrics, nullptr, &memo);
    EXPECT_FALSE(decision.eligible());
    EXPECT_EQ(decision.distance, kInfiniteDistance);
    EXPECT_FALSE(memo.window_only);
    EXPECT_EQ(metrics.distance_computations, call);
    EXPECT_EQ(planner.cache_hits(), 0u);
  }
  EXPECT_TRUE(planner.legal_moves(world, {3, 3}).empty());
}

TEST(Planner, BoxedInBlockIsSearchedWhenARuleNeedsNoEmptyCell) {
  // Four blocks cycling round a 2x2 square: all handovers, so the ring
  // table accepts the full ring and the boxed-in centre gets the full
  // search, whose decision its memo then serves.
  motion::RuleLibrary cycle;
  cycle.add(motion::MotionRule(
      "cycle",
      motion::CodeMatrix::from_rows({{5, 5, 2}, {5, 5, 2}, {2, 2, 2}}),
      {{0, {0, 0}, {0, 1}},
       {0, {0, 1}, {1, 1}},
       {0, {1, 1}, {1, 0}},
       {0, {1, 0}, {0, 0}}}));
  const sim::World world = square_world(std::move(cycle));
  PlannerConfig config;
  config.distance = fig10_params();
  config.allow_repositioning = false;  // tier-2 decisions are not memoized
  const MotionPlanner planner(&world.rules(), config);
  EXPECT_EQ(planner.legal_moves(world, {3, 3}).size(), 4u);
  PlannerMemo memo;
  (void)planner.evaluate(world, {3, 3}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_TRUE(memo.window_only);
  EXPECT_EQ(planner.cache_hits(), 0u);
  (void)planner.evaluate(world, {3, 3}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_EQ(planner.cache_hits(), 1u);
}

/// The lane climber of Tier1ClimberOnLane under a large id at (2,2), on a
/// floor row whose east end B at (5,1) can slide west to (4,1): two cells
/// from the climber, inside its dependence radius but outside its ring.
/// The floor runs on to x = 13, so (13,1) is far from the climber.
sim::World climber_world() {
  sim::World world(16, 12, motion::RuleLibrary::standard());
  world.grid().place(BlockId{99'999}, {2, 2});
  uint32_t id = 1;
  for (const Vec2 cell : {Vec2{1, 1}, Vec2{1, 2}, Vec2{1, 3}, Vec2{2, 1},
                          Vec2{5, 1}, Vec2{13, 1}}) {
    world.grid().place(BlockId{id++}, cell);
  }
  for (int32_t x = 1; x <= 13; ++x) world.grid().place(BlockId{id++}, {x, 0});
  return world;
}

MotionPlanner climber_planner(const sim::World& world) {
  PlannerConfig config;
  config.distance = fig10_params();
  config.allow_repositioning = false;  // tier-2 decisions are not memoized
  return MotionPlanner(&world.rules(), config);
}

TEST(Planner, MemoServesHighIdsAndForgetsNearbyMoves) {
  sim::World world = climber_world();
  const MotionPlanner planner = climber_planner(world);
  // A fresh grid has no connectivity verdict, so the first evaluation
  // floods, and a decision that needed a flood is not memoized. The flood
  // settles the verdict, as a running session has it.
  PlannerMemo memo;
  (void)planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_FALSE(memo.window_only);

  const MoveDecision first =
      planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  ASSERT_TRUE(first.eligible());
  EXPECT_EQ(planner.cache_hits(), 0u);
  const MoveDecision second =
      planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_EQ(planner.cache_hits(), 1u);
  EXPECT_EQ(second.distance, first.distance);
  EXPECT_EQ(second.move->subject_to(), first.move->subject_to());

  // One move far away: still served.
  world.grid().move({13, 1}, {12, 1});
  (void)planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_EQ(planner.cache_hits(), 2u);

  const auto b_moves = planner.legal_moves(world, {5, 1});
  const auto slide_west =
      std::find_if(b_moves.begin(), b_moves.end(), [](const auto& app) {
        return app.subject_to() == Vec2(4, 1);
      });
  ASSERT_NE(slide_west, b_moves.end());
  world.apply(*slide_west);
  // The climber still passes the ring test, so the memo is consulted, and
  // the nearby move voids it: recomputed, then served again.
  EXPECT_TRUE(planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr,
                               &memo)
                  .eligible());
  EXPECT_EQ(planner.cache_hits(), 2u);
  (void)planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_EQ(planner.cache_hits(), 3u);
}

TEST(Planner, MemoIsNotServedAfterTwoMutationsOrARingRejection) {
  sim::World world = climber_world();
  const MotionPlanner planner = climber_planner(world);
  ASSERT_TRUE(world.view().connected());
  PlannerMemo memo;
  const MoveDecision first =
      planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  ASSERT_TRUE(first.eligible());
  ASSERT_TRUE(memo.window_only);

  // Two mutations, both far from the climber: the memo cannot tell what
  // the first one touched, so the decision is recomputed.
  world.grid().move({13, 1}, {12, 1});
  world.grid().move({12, 1}, {13, 1});
  ASSERT_TRUE(world.view().connected());
  const MoveDecision recomputed =
      planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_EQ(planner.cache_hits(), 0u);
  EXPECT_EQ(recomputed.move->subject_to(), first.move->subject_to());
  (void)planner.evaluate(world, {2, 2}, nullptr, 0, nullptr, nullptr, &memo);
  EXPECT_EQ(planner.cache_hits(), 1u);

  // A block landing east of the climber leaves three of its ring cells
  // empty, but no standard rule moves a block from that ring: the ring test
  // turns the climber away, and its memo keeps nothing to serve.
  world.grid().place(BlockId{50'000}, {3, 2});
  const lat::Vec2 climber{2, 2};
  const auto ring = lat::ring_mask(world.view().occupancy_row(climber.y + 1),
                                   world.view().occupancy_row(climber.y),
                                   world.view().occupancy_row(climber.y - 1),
                                   climber.x);
  ASSERT_FALSE(world.rules().may_move(ring));
  EXPECT_FALSE(planner.evaluate(world, climber, nullptr, 0, nullptr, nullptr,
                                &memo)
                   .eligible());
  EXPECT_FALSE(memo.window_only);
  EXPECT_FALSE(memo.decision.eligible());
  EXPECT_EQ(planner.cache_hits(), 1u);
}

TEST(Planner, SingleLineRejectionIsNotServedFromTheMemo) {
  // One rule: the block steps west while its west neighbour steps north.
  // The climber at (2,7) beside the top of the column x = 1 has that move
  // only, and it would leave every block in the column, so the single-line
  // rule rejects it. A block landing far away breaks the line: the
  // decision must change although no cell near the climber did.
  motion::RuleLibrary lift;
  lift.add(motion::MotionRule(
      "lift_W",
      motion::CodeMatrix::from_rows({{3, 2, 2}, {5, 4, 2}, {2, 2, 2}}),
      {{0, {1, 0}, {0, 0}}, {0, {1, 1}, {1, 0}}}));
  sim::World world(8, 12, std::move(lift));
  uint32_t id = 1;
  for (int32_t y = 0; y <= 7; ++y) world.grid().place(BlockId{id++}, {1, y});
  world.grid().place(BlockId{id++}, {2, 7});
  ASSERT_TRUE(world.view().connected());
  const MotionPlanner planner = climber_planner(world);

  PlannerMemo memo;
  EXPECT_FALSE(planner.evaluate(world, {2, 7}, nullptr, 0, nullptr, nullptr,
                                &memo)
                   .eligible());
  EXPECT_FALSE(memo.window_only);

  world.grid().place(BlockId{id++}, {0, 0});
  ASSERT_TRUE(world.view().connected());
  const MoveDecision after =
      planner.evaluate(world, {2, 7}, nullptr, 0, nullptr, nullptr, &memo);
  ASSERT_TRUE(after.eligible());
  EXPECT_EQ(after.move->subject_to(), Vec2(1, 7));
  EXPECT_EQ(planner.cache_hits(), 0u);
}

/// Same rule application (or both none) and same reported distance.
bool same_decision(const MoveDecision& a, const MoveDecision& b) {
  if (a.distance != b.distance || a.repositioning != b.repositioning ||
      a.move.has_value() != b.move.has_value()) {
    return false;
  }
  return !a.move.has_value() ||
         (a.move->rule == b.move->rule && a.move->anchor == b.move->anchor &&
          a.move->subject_move == b.move->subject_move);
}

TEST(Planner, OneConstPlannerServesThreadsFromTheirOwnMemos) {
  // Shard windows evaluate through one planner at once, each thread with
  // its own blocks' memos, over one grid whose connectivity verdict was
  // settled before the window opened. Every thread here evaluates every
  // block twice: the first pass must match a serial pass, and the second
  // must be served from the thread's memos.
  for (const char* name : {"tower64", "blob1000"}) {
    SCOPED_TRACE(name);
    const lat::Scenario scenario = lat::resolve_scenario(name);
    sim::World world(scenario.width, scenario.height,
                     motion::RuleLibrary::standard());
    for (const auto& [id, pos] : scenario.blocks) world.grid().place(id, pos);
    // Settle the verdict once, as the sharded simulator does before each
    // window: the threads below then only read the grid.
    ASSERT_TRUE(world.view().connected());
    ASSERT_NE(world.view().connectivity_hint(),
              lat::ConnectivityHint::kUnknown);
    PlannerConfig config;
    config.distance.input = scenario.input;
    config.distance.output = scenario.output;
    const MotionPlanner planner(&world.rules(), config);
    std::vector<Vec2> blocks;
    for (const auto& [id, pos] : world.view().blocks()) {
      if (pos != scenario.input) blocks.push_back(pos);
    }

    std::vector<PlannerMemo> serial(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
      (void)planner.evaluate(world, blocks[i], nullptr, 0, nullptr, nullptr,
                             &serial[i]);
    }
    uint64_t reusable = 0;
    for (const PlannerMemo& memo : serial) reusable += memo.window_only ? 1 : 0;
    ASSERT_GT(reusable, 0u);

    constexpr size_t kThreads = 4;
    std::vector<size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<PlannerMemo> memos(blocks.size());
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t i = 0; i < blocks.size(); ++i) {
            const MoveDecision decision = planner.evaluate(
                world, blocks[i], nullptr, 0, nullptr, nullptr, &memos[i]);
            if (!same_decision(decision, serial[i].decision)) ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    }
    EXPECT_EQ(planner.cache_hits(), kThreads * reusable);
  }
}

TEST(Planner, LegalMovesMatchPhysics) {
  const sim::World world = make_world({{2, 2}, {1, 2}, {1, 1}, {2, 1}});
  const MotionPlanner planner = make_planner(world);
  for (const auto& app : planner.legal_moves(world, {2, 2})) {
    EXPECT_TRUE(world.can_apply(app)) << app.describe();
    EXPECT_EQ(app.subject_from(), Vec2(2, 2));
  }
}

// ---------------------------------------------------------------------------
// TabuList
// ---------------------------------------------------------------------------

TEST(Tabu, EvictsOldestAtCapacity) {
  TabuList tabu(2);
  tabu.push({0, 0});
  tabu.push({1, 1});
  tabu.push({2, 2});  // evicts (0,0)
  EXPECT_FALSE(tabu.contains({0, 0}));
  EXPECT_TRUE(tabu.contains({1, 1}));
  EXPECT_TRUE(tabu.contains({2, 2}));
  EXPECT_EQ(tabu.size(), 2u);
}

TEST(Tabu, ZeroCapacityNeverBlocks) {
  TabuList tabu(0);
  tabu.push({0, 0});
  EXPECT_FALSE(tabu.contains({0, 0}));
}

TEST(Tabu, ClearEmpties) {
  TabuList tabu;
  tabu.push({3, 3});
  tabu.clear();
  EXPECT_FALSE(tabu.contains({3, 3}));
  EXPECT_EQ(tabu.size(), 0u);
}

}  // namespace
}  // namespace sb::core
