#pragma once
// The four lateral contact directions of a block (paper Fig. 1: sensors and
// actuators sit on each side; there is no top/bottom contact).

#include <array>
#include <cstdint>
#include <ostream>
#include <string_view>

#include "lattice/vec2.hpp"

namespace sb::lat {

enum class Direction : uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
};

inline constexpr size_t kDirectionCount = 4;

/// All directions in a fixed order (N, E, S, W) for deterministic iteration.
[[nodiscard]] constexpr std::array<Direction, 4> all_directions() {
  return {Direction::kNorth, Direction::kEast, Direction::kSouth,
          Direction::kWest};
}

[[nodiscard]] constexpr Vec2 delta(Direction d) {
  switch (d) {
    case Direction::kNorth: return {0, 1};
    case Direction::kEast: return {1, 0};
    case Direction::kSouth: return {0, -1};
    case Direction::kWest: return {-1, 0};
  }
  return {0, 0};
}

[[nodiscard]] constexpr Direction opposite(Direction d) {
  return static_cast<Direction>((static_cast<uint8_t>(d) + 2) % 4);
}

/// 90-degree clockwise rotation (N -> E -> S -> W -> N).
[[nodiscard]] constexpr Direction rotate_cw(Direction d) {
  return static_cast<Direction>((static_cast<uint8_t>(d) + 1) % 4);
}

[[nodiscard]] constexpr Direction rotate_ccw(Direction d) {
  return static_cast<Direction>((static_cast<uint8_t>(d) + 3) % 4);
}

[[nodiscard]] constexpr std::string_view to_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
  }
  return "?";
}

inline std::ostream& operator<<(std::ostream& os, Direction d) {
  return os << to_string(d);
}

}  // namespace sb::lat
