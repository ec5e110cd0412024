#include "lattice/region.hpp"

#include <algorithm>
#include <unordered_map>

#include "lattice/world_view.hpp"
#include "util/assert.hpp"

namespace sb::lat {

std::vector<Direction> oriented_directions(Vec2 input, Vec2 output) {
  std::vector<Direction> out;
  if (output.x < input.x) out.push_back(Direction::kWest);
  if (output.x > input.x) out.push_back(Direction::kEast);
  if (output.y < input.y) out.push_back(Direction::kSouth);
  if (output.y > input.y) out.push_back(Direction::kNorth);
  return out;
}

std::vector<std::pair<Vec2, Vec2>> oriented_graph_links(Vec2 input,
                                                        Vec2 output) {
  const Rect rect = bounding_rect(input, output);
  const std::vector<Direction> dirs = oriented_directions(input, output);
  std::vector<std::pair<Vec2, Vec2>> links;
  for (int32_t y = rect.lo.y; y <= rect.hi.y; ++y) {
    for (int32_t x = rect.lo.x; x <= rect.hi.x; ++x) {
      const Vec2 from{x, y};
      for (Direction d : dirs) {
        const Vec2 to = from + delta(d);
        if (rect.contains(to)) links.emplace_back(from, to);
      }
    }
  }
  return links;
}

std::optional<std::vector<Vec2>> occupied_shortest_path(const Grid& grid,
                                                        Vec2 input,
                                                        Vec2 output) {
  SB_EXPECTS(grid.in_bounds(input) && grid.in_bounds(output),
             "I/O must be on the surface");
  const WorldView view(grid);
  if (!view.occupied(input) || !view.occupied(output)) return std::nullopt;
  if (input == output) return std::vector<Vec2>{input};
  const std::vector<Direction> dirs = oriented_directions(input, output);
  // BFS over occupied cells following only oriented links; every reached
  // cell is at exactly its Manhattan distance from I, so reaching O proves a
  // shortest path of occupied cells exists.
  std::unordered_map<Vec2, Vec2, Vec2Hash> parent;
  std::vector<Vec2> frontier{input};
  parent[input] = input;
  while (!frontier.empty()) {
    std::vector<Vec2> next;
    for (Vec2 p : frontier) {
      for (Direction d : dirs) {
        const Vec2 q = p + delta(d);
        if (!view.occupied(q) || parent.count(q)) continue;
        parent[q] = p;
        if (q == output) {
          std::vector<Vec2> path;
          for (Vec2 cur = output;; cur = parent[cur]) {
            path.push_back(cur);
            if (cur == input) break;
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        next.push_back(q);
      }
    }
    frontier = std::move(next);
  }
  return std::nullopt;
}

bool path_complete(const Grid& grid, Vec2 input, Vec2 output) {
  return occupied_shortest_path(grid, input, output).has_value();
}

}  // namespace sb::lat
