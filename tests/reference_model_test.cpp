// Randomized reference-model tests: the optimized implementations are
// checked against independently written naive models on random inputs.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "lattice/connectivity.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/rule_xml.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace sb {
namespace {

using lat::BlockId;
using lat::Grid;
using lat::Vec2;
using lat::WorldView;

Grid random_grid(Rng& rng, int32_t w, int32_t h, int blocks) {
  Grid grid(w, h);
  const WorldView view(grid);
  uint32_t id = 1;
  int placed = 0;
  int guard = 0;
  while (placed < blocks && guard++ < 10'000) {
    const Vec2 p{static_cast<int32_t>(rng.next_below(
                     static_cast<uint64_t>(w))),
                 static_cast<int32_t>(rng.next_below(
                     static_cast<uint64_t>(h)))};
    if (!view.occupied(p)) {
      grid.place(BlockId{id++}, p);
      ++placed;
    }
  }
  return grid;
}

// ---------------------------------------------------------------------------
// Connectivity vs a naive union-find reference
// ---------------------------------------------------------------------------

int naive_component_count(const Grid& grid) {
  const WorldView view(grid);
  std::map<Vec2, Vec2> parent;
  for (const auto& [id, pos] : view.blocks()) parent[pos] = pos;
  const std::function<Vec2(Vec2)> find = [&](Vec2 v) {
    while (parent.at(v) != v) v = parent.at(v);
    return v;
  };
  for (const auto& [id, pos] : view.blocks()) {
    for (lat::Direction d : lat::all_directions()) {
      const Vec2 q = pos + delta(d);
      if (view.occupied(q)) parent[find(pos)] = find(q);
    }
  }
  std::set<Vec2> roots;
  for (const auto& [id, pos] : view.blocks()) roots.insert(find(pos));
  return static_cast<int>(roots.size());
}

TEST(ReferenceModel, IsConnectedMatchesUnionFind) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const Grid grid =
        random_grid(rng, 8, 8, static_cast<int>(rng.next_in(0, 20)));
    EXPECT_EQ(lat::is_connected(grid),
              naive_component_count(grid) <= 1)
        << "trial " << trial;
  }
}

TEST(ReferenceModel, ConnectedAfterMovesMatchesApplyThenCheck) {
  Rng rng(23);
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Grid grid = random_grid(rng, 7, 7, static_cast<int>(rng.next_in(2, 14)));
    const WorldView view(grid);
    // Pick a random block and a random empty destination adjacent to it.
    const auto ids = view.block_ids();
    const BlockId mover = ids[rng.pick_index(ids)];
    const Vec2 from = view.position_of(mover);
    const lat::Direction d =
        lat::all_directions()[rng.next_below(4)];
    const Vec2 to = from + delta(d);
    if (!grid.in_bounds(to) || view.occupied(to)) continue;
    ++checked;
    const bool predicted = lat::connected_after_moves(grid, {{from, to}});
    grid.move(from, to);
    EXPECT_EQ(predicted, lat::is_connected(grid)) << "trial " << trial;
  }
  EXPECT_GT(checked, 100);
}

// ---------------------------------------------------------------------------
// Rule applicability vs a hand-written predicate
// ---------------------------------------------------------------------------

/// Naive restatement of the east-sliding conditions straight from the
/// paper's prose: mover present, destination free, two south supports,
/// two north clearances, everything motion-relevant in bounds.
bool naive_slide_es_applicable(const Grid& grid, Vec2 mover) {
  const Vec2 dst = mover + Vec2{1, 0};
  const auto occupied = [&](Vec2 p) { return WorldView(grid).occupied(p); };
  if (!grid.in_bounds(mover) || !grid.in_bounds(dst)) return false;
  if (!grid.in_bounds(mover + Vec2{0, -1}) ||
      !grid.in_bounds(dst + Vec2{0, -1})) {
    return false;  // supports must be real cells
  }
  return occupied(mover) && !occupied(dst) &&
         occupied(mover + Vec2{0, -1}) && occupied(dst + Vec2{0, -1}) &&
         !occupied(mover + Vec2{0, 1}) && !occupied(dst + Vec2{0, 1});
}

TEST(ReferenceModel, SlideApplicabilityMatchesNaivePredicate) {
  const motion::RuleLibrary lib = motion::RuleLibrary::standard();
  const motion::MotionRule* rule = lib.find("slide_ES");
  ASSERT_NE(rule, nullptr);
  Rng rng(37);
  int agreements = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Grid grid =
        random_grid(rng, 6, 6, static_cast<int>(rng.next_in(3, 16)));
    const WorldView view(grid);
    for (const auto& [id, pos] : view.blocks()) {
      const bool fast = motion::rule_applicable(*rule, view, pos);
      const bool naive = naive_slide_es_applicable(grid, pos);
      EXPECT_EQ(fast, naive) << "trial " << trial << " at " << pos;
      ++agreements;
    }
  }
  EXPECT_GT(agreements, 1000);
}

// ---------------------------------------------------------------------------
// XML round-trip on randomized libraries
// ---------------------------------------------------------------------------

TEST(ReferenceModel, RandomRuleLibrariesRoundTripThroughXml) {
  Rng rng(53);
  for (int trial = 0; trial < 30; ++trial) {
    // A random subset of the train-extended library under fresh names.
    const motion::RuleLibrary base =
        motion::RuleLibrary::standard_with_trains(4);
    motion::RuleLibrary subset;
    int added = 0;
    for (const motion::MotionRule& rule : base.rules()) {
      if (rng.next_bool(0.4)) {
        motion::MotionRule copy = rule;
        copy.set_name(fmt("r{}_{}", trial, added++));
        subset.add(copy);
      }
    }
    if (subset.empty()) continue;
    const motion::RuleLibrary reparsed =
        motion::parse_capabilities(motion::serialize_capabilities(subset));
    ASSERT_EQ(reparsed.size(), subset.size()) << "trial " << trial;
    for (size_t i = 0; i < subset.size(); ++i) {
      EXPECT_EQ(reparsed.rules()[i].canonical_key(),
                subset.rules()[i].canonical_key());
    }
  }
}

// ---------------------------------------------------------------------------
// Simultaneous moves vs a naive two-phase model
// ---------------------------------------------------------------------------

TEST(ReferenceModel, SimultaneousMovesMatchTwoPhaseModel) {
  Rng rng(71);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Grid grid = random_grid(rng, 6, 6, static_cast<int>(rng.next_in(2, 10)));
    const WorldView view(grid);
    // Build a random chain of 1-3 moves shifting distinct blocks east;
    // model: lift all, then land all (collisions make it invalid).
    std::vector<std::pair<Vec2, Vec2>> moves;
    for (const auto& [id, pos] : view.blocks()) {
      if (moves.size() >= 3) break;
      moves.emplace_back(pos, pos + Vec2{1, 0});
    }
    if (moves.empty()) continue;
    // Naive model.
    std::map<Vec2, BlockId> cells;
    for (const auto& [id, pos] : view.blocks()) cells[pos] = id;
    bool valid = true;
    std::map<Vec2, BlockId> lifted;
    for (const auto& [from, to] : moves) {
      lifted[to] = cells.at(from);
      cells.erase(from);
      valid &= grid.in_bounds(to);
    }
    for (const auto& [to, id] : lifted) {
      if (cells.count(to)) valid = false;
    }
    if (!valid) continue;  // Grid asserts on invalid input by contract
    for (const auto& [to, id] : lifted) cells[to] = id;

    grid.move_simultaneously(moves);
    ++checked;
    for (const auto& [pos, id] : cells) {
      EXPECT_EQ(view.at(pos), id) << "trial " << trial;
    }
    EXPECT_EQ(grid.block_count(), cells.size());
  }
  EXPECT_GT(checked, 50);
}

}  // namespace
}  // namespace sb
