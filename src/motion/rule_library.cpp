#include "motion/rule_library.hpp"

#include "lattice/direction.hpp"
#include "lattice/ring.hpp"
#include "motion/transform.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"

namespace sb::motion {

namespace {

using lat::Direction;

char direction_letter(Direction d) {
  switch (d) {
    case Direction::kNorth: return 'N';
    case Direction::kEast: return 'E';
    case Direction::kSouth: return 'S';
    case Direction::kWest: return 'W';
  }
  return '?';
}

/// Canonical "east sliding" rule, Eq (1) of the paper: the central block
/// slides east over two support blocks to the south; the northern cells
/// must stay clear; the west column is irrelevant.
MotionRule canonical_slide_east() {
  return MotionRule("slide_ES",
                    CodeMatrix::from_rows({{2, 0, 0},    //
                                           {2, 4, 3},    //
                                           {2, 1, 1}}),  //
                    {{0, {1, 1}, {1, 2}}});
}

/// Canonical "east carrying" rule, Eq (4): the west block pushes into the
/// central cell (handover) while the central block is carried east beyond
/// the support block to the south.
MotionRule canonical_carry_east() {
  return MotionRule("carry_ES",
                    CodeMatrix::from_rows({{0, 0, 0},    //
                                           {4, 5, 3},    //
                                           {2, 1, 2}}),  //
                    {{0, {1, 1}, {1, 2}}, {0, {1, 0}, {1, 1}}});
}

/// Expands a canonical east-moving, south-supported rule into its 8
/// orientation variants and adds them to the library.
void add_family(RuleLibrary& lib, const MotionRule& canonical,
                std::string_view family) {
  // The canonical rule moves East with support on the clockwise side
  // (South). Rotating k times clockwise yields motion direction rot^k(E)
  // with support still on the clockwise side; mirroring swaps the support
  // to the counter-clockwise side.
  MotionRule cw = canonical;
  Direction motion = Direction::kEast;
  for (int k = 0; k < 4; ++k) {
    const Direction support_cw = rotate_cw(motion);
    const Direction support_ccw = rotate_ccw(motion);
    MotionRule named_cw = cw;
    named_cw.set_name(fmt("{}_{}{}", family, direction_letter(motion),
                          direction_letter(support_cw)));
    lib.add(named_cw);
    // Mirror across the motion axis: for E/W motion that is the vertical
    // (north<->south) mirror; for N/S motion the horizontal one.
    const bool horizontal_motion =
        motion == Direction::kEast || motion == Direction::kWest;
    MotionRule mirrored =
        horizontal_motion
            ? mirror_vertical(cw, fmt("{}_{}{}", family,
                                      direction_letter(motion),
                                      direction_letter(support_ccw)))
            : mirror_horizontal(cw, fmt("{}_{}{}", family,
                                        direction_letter(motion),
                                        direction_letter(support_ccw)));
    lib.add(mirrored);
    cw = rotate_cw(cw, "tmp");
    motion = rotate_cw(motion);
  }
}

/// Marks in `table` every ring occupancy under which `rule` could make the
/// block at the ring's centre the subject of a move: for each move, the
/// ring cells the matrix covers around the move's source cell are fixed by
/// their codes, and cells off the matrix may be anything.
void mark_mover_rings(const MotionRule& rule, std::array<bool, 256>& table) {
  const CodeMatrix& matrix = rule.matrix();
  for (const ElementaryMove& move : rule.moves()) {
    const lat::Vec2 source = world_offset(rule.size(), move.from);
    uint32_t need_occupied = 0;
    uint32_t need_empty = 0;
    for (size_t i = 0; i < lat::kRing.size(); ++i) {
      const MatrixCoord mc = matrix_coord(rule.size(), source + lat::kRing[i]);
      if (!matrix.contains(mc)) continue;
      if (requires_block(matrix.at(mc))) need_occupied |= 1u << i;
      if (requires_empty(matrix.at(mc))) need_empty |= 1u << i;
    }
    // Every submask of the unconstrained cells, on top of the required
    // blocks.
    const uint32_t free = 0xFFu & ~(need_occupied | need_empty);
    for (uint32_t extra = free;; extra = (extra - 1) & free) {
      table[need_occupied | extra] = true;
      if (extra == 0) break;
    }
  }
}

}  // namespace

RuleLibrary RuleLibrary::standard() {
  RuleLibrary lib;
  add_family(lib, canonical_slide_east(), "slide");
  add_family(lib, canonical_carry_east(), "carry");
  SB_ENSURES(lib.size() == 16,
             "standard library must contain 8 slide + 8 carry rules, got ",
             lib.size());
  return lib;
}

MotionRule RuleLibrary::make_train_rule(int32_t length) {
  SB_EXPECTS(length >= 2, "trains need at least two blocks, got ", length);
  // The lead block sits at the matrix center (column m); followers trail
  // west of it; the destination is the cell east of the lead. Mirrors the
  // carry's structure (which is exactly the length-2 train): support under
  // the lead, full clearance along the north side of the moved span.
  const int32_t radius = length - 1;
  const int32_t size = 2 * radius + 1;
  const int32_t m = size / 2;
  CodeMatrix matrix(size, EventCode::kAny);
  matrix.set(m, m - (length - 1), EventCode::kBecomesEmpty);  // tail
  for (int32_t i = 1; i < length; ++i) {
    matrix.set(m, m - (length - 1) + i, EventCode::kHandover);
  }
  matrix.set(m, m + 1, EventCode::kBecomesOccupied);  // lead destination
  for (int32_t col = m - (length - 1); col <= m + 1; ++col) {
    matrix.set(m - 1, col, EventCode::kRemainsEmpty);  // north clearance
  }
  matrix.set(m + 1, m, EventCode::kRemainsOccupied);  // support under lead

  std::vector<ElementaryMove> moves;
  for (int32_t col = m; col >= m - (length - 1); --col) {
    moves.push_back({0, {m, col}, {m, col + 1}});
  }
  MotionRule rule(fmt("train{}_ES", length), std::move(matrix),
                  std::move(moves));
  SB_ENSURES(rule.semantic_issues().empty(),
             "generated train rule must be well-formed");
  return rule;
}

RuleLibrary RuleLibrary::standard_with_trains(int32_t max_train_length) {
  SB_EXPECTS(max_train_length >= 3,
             "trains of length 2 are the standard carries; ask for >= 3");
  RuleLibrary lib;
  for (int32_t length = max_train_length; length >= 3; --length) {
    add_family(lib, make_train_rule(length), fmt("train{}", length));
  }
  add_family(lib, canonical_slide_east(), "slide");
  add_family(lib, canonical_carry_east(), "carry");
  return lib;
}

void RuleLibrary::add(MotionRule rule) {
  const auto issues = rule.semantic_issues();
  SB_EXPECTS(issues.empty(), "rule '", rule.name(),
             "' is malformed: ", issues.empty() ? "" : issues.front());
  SB_EXPECTS(by_name_.count(rule.name()) == 0, "duplicate rule name '",
             rule.name(), "'");
  const std::string key = rule.canonical_key();
  SB_EXPECTS(by_key_.count(key) == 0, "rule '", rule.name(),
             "' duplicates the behaviour of '",
             by_key_.count(key) ? rules_[by_key_.at(key)].name() : "", "'");
  by_name_[rule.name()] = rules_.size();
  by_key_[key] = rules_.size();
  mark_mover_rings(rule, may_move_);
  rules_.push_back(std::move(rule));
}

const MotionRule* RuleLibrary::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &rules_[it->second];
}

const MotionRule* RuleLibrary::find_behaviour(const MotionRule& rule) const {
  const auto it = by_key_.find(rule.canonical_key());
  return it == by_key_.end() ? nullptr : &rules_[it->second];
}

int32_t RuleLibrary::max_rule_size() const {
  int32_t size = 0;
  for (const auto& rule : rules_) size = std::max(size, rule.size());
  return size;
}

int32_t RuleLibrary::sensing_radius() const {
  const int32_t size = max_rule_size();
  return size == 0 ? 0 : size - 1;
}

}  // namespace sb::motion
