// Metamorphic tests: symmetry transforms must commute with applicability.
// If a rule applies on a grid, the rotated rule applies on the rotated
// grid at the rotated anchor - for every rule, random grid, and anchor.

#include <gtest/gtest.h>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/transform.hpp"
#include "util/rng.hpp"

namespace sb::motion {
namespace {

using lat::BlockId;
using lat::Grid;
using lat::Vec2;
using lat::WorldView;

/// Rotates a square grid 90 degrees clockwise: (x, y) -> (y, S-1-x).
Grid rotate_grid_cw(const Grid& grid) {
  SB_EXPECTS(grid.width() == grid.height());
  Grid out(grid.width(), grid.height());
  for (const auto& [id, pos] : WorldView(grid).blocks()) {
    out.place(id, {pos.y, grid.width() - 1 - pos.x});
  }
  return out;
}

Vec2 rotate_point_cw(Vec2 p, int32_t size) {
  return {p.y, size - 1 - p.x};
}

TEST(Metamorphic, RotationCommutesWithApplicability) {
  Rng rng(101);
  const RuleLibrary lib = RuleLibrary::standard();
  const int32_t size = 9;
  int applicable_seen = 0;
  for (int trial = 0; trial < 150; ++trial) {
    Grid grid(size, size);
    uint32_t id = 1;
    const int blocks = static_cast<int>(rng.next_in(4, 20));
    for (int b = 0; b < blocks; ++b) {
      const Vec2 p{static_cast<int32_t>(rng.next_below(size)),
                   static_cast<int32_t>(rng.next_below(size))};
      if (!WorldView(grid).occupied(p)) grid.place(BlockId{id++}, p);
    }
    const Grid rotated = rotate_grid_cw(grid);

    for (const MotionRule& rule : lib.rules()) {
      const MotionRule rotated_rule = rotate_cw(rule, "rot");
      for (int probe = 0; probe < 6; ++probe) {
        const Vec2 anchor{static_cast<int32_t>(rng.next_below(size)),
                          static_cast<int32_t>(rng.next_below(size))};
        const bool original =
            rule_applicable(rule, WorldView(grid), anchor);
        const bool mapped = rule_applicable(
            rotated_rule, WorldView(rotated), rotate_point_cw(anchor, size));
        EXPECT_EQ(original, mapped)
            << rule.name() << " at " << anchor << " trial " << trial;
        applicable_seen += original ? 1 : 0;
      }
    }
  }
  // The sweep must have exercised real positives, not just rejections.
  EXPECT_GT(applicable_seen, 10);
}

TEST(Metamorphic, MirrorCommutesWithApplicability) {
  Rng rng(103);
  const RuleLibrary lib = RuleLibrary::standard();
  const int32_t size = 9;
  const auto mirror_grid = [&](const Grid& grid) {
    Grid out(grid.width(), grid.height());
    for (const auto& [id, pos] : WorldView(grid).blocks()) {
      out.place(id, {pos.x, grid.height() - 1 - pos.y});
    }
    return out;
  };
  int applicable_seen = 0;
  for (int trial = 0; trial < 150; ++trial) {
    Grid grid(size, size);
    uint32_t id = 1;
    const int blocks = static_cast<int>(rng.next_in(4, 20));
    for (int b = 0; b < blocks; ++b) {
      const Vec2 p{static_cast<int32_t>(rng.next_below(size)),
                   static_cast<int32_t>(rng.next_below(size))};
      if (!WorldView(grid).occupied(p)) grid.place(BlockId{id++}, p);
    }
    const Grid mirrored = mirror_grid(grid);
    for (const MotionRule& rule : lib.rules()) {
      const MotionRule mirrored_rule = mirror_vertical(rule, "mir");
      for (int probe = 0; probe < 6; ++probe) {
        const Vec2 anchor{static_cast<int32_t>(rng.next_below(size)),
                          static_cast<int32_t>(rng.next_below(size))};
        const bool original =
            rule_applicable(rule, WorldView(grid), anchor);
        const bool mapped = rule_applicable(
            mirrored_rule, WorldView(mirrored),
            Vec2{anchor.x, size - 1 - anchor.y});
        EXPECT_EQ(original, mapped)
            << rule.name() << " at " << anchor << " trial " << trial;
        applicable_seen += original ? 1 : 0;
      }
    }
  }
  EXPECT_GT(applicable_seen, 10);
}

}  // namespace
}  // namespace sb::motion

namespace sb::core {
namespace {

/// Random blob seed whose task completes only with tier-2 repositioning
/// (found by sweeping seeds; pins the ablation A1 result).
lat::Scenario tier2_dependent_blob() {
  lat::BlobParams params;
  params.surface_width = 10;
  params.surface_height = 10;
  params.input = {1, 1};
  params.output = {1, 7};
  params.block_count = 12;
  Rng rng(6);
  return lat::random_blob_scenario(params, rng);
}

TEST(Metamorphic, BlobCompletesOnlyWithRepositioning) {
  const lat::Scenario s = tier2_dependent_blob();
  SessionConfig with;
  with.sim.seed = 6;
  const SessionResult full = ReconfigurationSession::run_scenario(s, with);
  EXPECT_TRUE(full.complete);
  EXPECT_GT(full.repositioning_hops, 0u);

  SessionConfig without = with;
  without.allow_repositioning = false;
  without.max_iterations = 2000;
  const SessionResult strict =
      ReconfigurationSession::run_scenario(s, without);
  EXPECT_FALSE(strict.complete);
  EXPECT_TRUE(strict.blocked);
}

TEST(Metamorphic, WideBlobIsBeyondTheRuleSetButDiagnosed) {
  // The 4x3 development blob seeds both feeder lanes; its end-game needs
  // two spare blocks where only one exists, so no greedy execution can
  // finish it. The system must diagnose this (blocked), not hang.
  lat::Scenario s;
  s.name = "wide4x3";
  s.width = 6;
  s.height = 12;
  s.input = {1, 0};
  s.output = {1, 10};
  uint32_t id = 1;
  for (int32_t y = 0; y < 3; ++y) {
    for (int32_t x = 0; x < 4; ++x) {
      s.blocks.emplace_back(lat::BlockId{id++}, lat::Vec2{x, y});
    }
  }
  SessionConfig config;
  config.max_iterations = 2000;
  const SessionResult result = ReconfigurationSession::run_scenario(s, config);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.blocked);
  EXPECT_NE(result.stop_reason, sim::StopReason::kEventLimit);
}

}  // namespace
}  // namespace sb::core
