#pragma once
// The library of motion rules available to the blocks ("capabilities").
//
// The standard library contains the two canonical families of the paper —
// sliding (Eq 1) and carrying (Eq 4) — closed under the symmetry group
// (§IV: rules are derived via symmetry and rotation), deduplicated:
// 8 sliding rules (4 directions x 2 support sides) and 8 carrying rules.

#include <array>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "motion/rule.hpp"

namespace sb::motion {

class RuleLibrary {
 public:
  RuleLibrary() = default;

  /// The built-in rule set described above. Deterministic order and names:
  /// slide_<motion><support> and carry_<motion><support>, e.g. slide_ES is
  /// the paper's Eq (1) "east sliding" with south support, carry_ES its
  /// Eq (4) "east carrying" counterpart.
  [[nodiscard]] static RuleLibrary standard();

  /// The standard set extended with column/row trains of up to
  /// `max_train_length` blocks moving simultaneously - §IV's "important
  /// family of block motions ... adjacent blocks in the same row or in the
  /// same column". A k-train generalizes the carry (k = 2): the lead block
  /// advances into free space, every follower shifts one cell, the lead is
  /// supported laterally and the opposite side of the span must be clear.
  /// Train families are ordered before the standard families so tie-first
  /// policies prefer moving more blocks per election.
  [[nodiscard]] static RuleLibrary standard_with_trains(
      int32_t max_train_length = 4);

  /// The canonical east-moving, south-supported train of `length` blocks
  /// (length >= 2; length 2 equals the paper's Eq (4) carry).
  [[nodiscard]] static MotionRule make_train_rule(int32_t length);

  /// Adds a rule. Rejects (aborts) rules with semantic issues, duplicate
  /// names, or behaviour identical to an existing rule; outside input is
  /// checked before it gets here (motion/rule_xml.cpp).
  void add(MotionRule rule);

  [[nodiscard]] const std::vector<MotionRule>& rules() const { return rules_; }
  [[nodiscard]] size_t size() const { return rules_.size(); }
  [[nodiscard]] bool empty() const { return rules_.empty(); }

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const MotionRule* find(std::string_view name) const;

  /// The rule already in the library that behaves like `rule` (equal
  /// canonical_key, whatever the names); nullptr when none does.
  [[nodiscard]] const MotionRule* find_behaviour(const MotionRule& rule) const;

  /// Largest matrix size among the rules (0 for an empty library).
  [[nodiscard]] int32_t max_rule_size() const;

  /// Chebyshev sensing radius a block needs to evaluate every placement in
  /// which it takes part: with the block somewhere inside a size x size
  /// window, cells up to (size - 1) away can matter.
  [[nodiscard]] int32_t sensing_radius() const;

  /// False when no placement of any rule can make a block whose 8-cell ring
  /// has occupancy `ring` (lat::ring_mask; off-surface cells read empty)
  /// the subject of a move. A necessary condition only, read from the
  /// rules' own codes: each ring cell a rule's matrix covers around the
  /// moving block's source cell must hold a block (codes 1/4/5) or be
  /// empty (0/3). Boxed-in blocks (ring 0xFF) are "no" for every library
  /// whose movers all need an empty ring cell, as the standard and train
  /// libraries' do.
  [[nodiscard]] bool may_move(uint8_t ring) const { return may_move_[ring]; }

 private:
  std::vector<MotionRule> rules_;
  /// may_move() by ring mask, widened by add() as each rule arrives.
  std::array<bool, 256> may_move_{};
  std::map<std::string, size_t, std::less<>> by_name_;
  std::map<std::string, size_t> by_key_;
};

}  // namespace sb::motion
