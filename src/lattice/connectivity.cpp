#include "lattice/connectivity.hpp"

#include <algorithm>

#include "lattice/ring.hpp"
#include "lattice/world_view.hpp"
#include "util/assert.hpp"

namespace sb::lat {

namespace {

// ---------------------------------------------------------------------------
// Scratch-buffer flood
//
// The flood works directly on the grid's dense cell array. Visited marks
// live in a thread-local generation-stamped buffer: bumping the generation
// invalidates every mark at once, so no clearing, hashing, or per-call
// allocation happens on the hot path. Each worker thread (SweepRunner runs
// one session per thread) owns its scratch.
// ---------------------------------------------------------------------------

struct FloodScratch {
  std::vector<uint32_t> stamp;  ///< per-cell visit generation
  std::vector<uint32_t> stack;  ///< DFS work list of cell indices
  uint32_t generation = 0;
};

FloodScratch& flood_scratch(size_t cell_count) {
  thread_local FloodScratch scratch;
  if (scratch.stamp.size() < cell_count) {
    scratch.stamp.assign(cell_count, 0);
    scratch.generation = 0;
  }
  if (++scratch.generation == 0) {  // wrapped: clear once per 2^32 floods
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
    scratch.generation = 1;
  }
  scratch.stack.clear();
  return scratch;
}

/// Hypothetical occupancy: the grid with `vacated` cells emptied and
/// `filled` cells occupied. Both lists hold at most a rule's worth of cells
/// and are scanned linearly.
bool occupied_overlay(const Grid& grid, Vec2 q, const Vec2* vacated,
                      size_t vacated_count, const Vec2* filled,
                      size_t filled_count) {
  for (size_t i = 0; i < filled_count; ++i) {
    if (filled[i] == q) return true;
  }
  for (size_t i = 0; i < vacated_count; ++i) {
    if (vacated[i] == q) return false;
  }
  return WorldView(grid).occupied(q);
}

/// Flood from `start` (must be occupied under the overlay) using the
/// scratch's current generation; returns the number of cells reached.
size_t flood_fill(const Grid& grid, FloodScratch& scratch, Vec2 start,
                  const Vec2* vacated, size_t vacated_count,
                  const Vec2* filled, size_t filled_count) {
  const uint32_t gen = scratch.generation;
  const int32_t width = grid.width();
  const int32_t height = grid.height();
  const size_t start_index = grid.cell_index(start);
  scratch.stamp[start_index] = gen;
  scratch.stack.push_back(static_cast<uint32_t>(start_index));
  size_t visited = 1;
  while (!scratch.stack.empty()) {
    const uint32_t index = scratch.stack.back();
    scratch.stack.pop_back();
    const int32_t x = static_cast<int32_t>(index) % width;
    const int32_t y = static_cast<int32_t>(index) / width;
    const Vec2 p{x, y};
    for (Direction d : all_directions()) {
      const Vec2 q = p + delta(d);
      if (q.x < 0 || q.x >= width || q.y < 0 || q.y >= height) continue;
      const size_t qi = static_cast<size_t>(q.y) * static_cast<size_t>(width) +
                        static_cast<size_t>(q.x);
      if (scratch.stamp[qi] == gen) continue;
      bool occ;
      if (vacated_count == 0 && filled_count == 0) {
        occ = grid.occupied_index(qi);
      } else {
        occ = occupied_overlay(grid, q, vacated, vacated_count, filled,
                               filled_count);
      }
      if (!occ) continue;
      scratch.stamp[qi] = gen;
      scratch.stack.push_back(static_cast<uint32_t>(qi));
      ++visited;
    }
  }
  return visited;
}

// ---------------------------------------------------------------------------
// 8-neighborhood mask rule
//
// Ring masks follow lattice/ring.hpp (bit i is ring cell i, in cyclic order
// N, NE, E, SE, S, SW, W, NW). Consecutive ring cells are 4-adjacent to
// each other, so a cyclically contiguous run of occupied ring cells is
// itself 4-connected without passing through the center.
// ---------------------------------------------------------------------------

/// Ring indices of the 4-adjacent (orthogonal) neighbors: N, E, S, W.
constexpr uint32_t kOrthoMask = 0b01010101;

/// True when vacating the center is provably safe for ring occupancy
/// `mask`: every occupied orthogonal neighbor lies in one cyclic run of
/// occupied ring cells. False means "inconclusive", not "disconnects".
constexpr bool removal_mask_safe(uint32_t mask) {
  if ((mask & kOrthoMask) == 0) return false;  // isolated center: flood
  if (mask == 0xFF) return true;               // full ring: one run
  int runs_with_ortho = 0;
  for (int i = 0; i < 8; ++i) {
    const bool current = ((mask >> i) & 1) != 0;
    const bool previous = ((mask >> ((i + 7) % 8)) & 1) != 0;
    if (!current || previous) continue;  // not the start of a run
    bool has_ortho = false;
    for (int j = i; ((mask >> (j % 8)) & 1) != 0; ++j) {
      if (((kOrthoMask >> (j % 8)) & 1) != 0) has_ortho = true;
    }
    if (has_ortho) ++runs_with_ortho;
  }
  return runs_with_ortho == 1;
}

constexpr std::array<bool, 256> make_removal_table() {
  std::array<bool, 256> table{};
  for (uint32_t mask = 0; mask < 256; ++mask) {
    table[mask] = removal_mask_safe(mask);
  }
  return table;
}

constexpr std::array<bool, 256> kRemovalSafe = make_removal_table();

/// Tier 1 of the oracle. Every mask verdict (probes, frontier batches, row
/// sweeps) comes from here: the ring mask of cell `x` is read from three
/// padded occupancy rows (`up` is row y + 1, `mid` row y, `dn` row y - 1)
/// by lat::ring_mask and looked up in kRemovalSafe.
bool removal_safe(const uint8_t* up, const uint8_t* mid, const uint8_t* dn,
                  int32_t x) {
  return kRemovalSafe[ring_mask(up, mid, dn, x)];
}

/// removal_safe for one cell of the grid, which must be on the surface.
bool removal_safe(const Grid& grid, Vec2 p) {
  SB_EXPECTS(grid.in_bounds(p), "removal probe off the surface at ", p);
  const WorldState& state = grid.state();
  return removal_safe(state.occupancy_row(p.y + 1), state.occupancy_row(p.y),
                      state.occupancy_row(p.y - 1), p.x);
}

}  // namespace

namespace detail {

void compute_removal_row_scalar(const Grid& grid, int32_t y, uint8_t* out) {
  const WorldState& state = grid.state();
  const uint8_t* up = state.occupancy_row(y + 1);
  const uint8_t* mid = state.occupancy_row(y);
  const uint8_t* dn = state.occupancy_row(y - 1);
  const int32_t width = grid.width();
  for (int32_t x = 0; x < width; ++x) {
    out[x] = removal_safe(up, mid, dn, x) ? 1 : 0;
  }
}

// Kept only because bench_e2e/layers.cpp calls it (connectivity.hpp).
void compute_removal_row_wide(const Grid& grid, int32_t y, uint8_t* out) {
  compute_removal_row_scalar(grid, y, out);
}

}  // namespace detail

void batch_removal_verdicts(const Grid& grid, const Vec2* cells, size_t count,
                            uint8_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = removal_safe(grid, cells[i]) ? 1 : 0;
  }
}

LocalVerdict local_removal_check(const Grid& grid, Vec2 from) {
  return removal_safe(grid, from) ? LocalVerdict::kPreservesConnectivity
                                  : LocalVerdict::kInconclusive;
}

LocalVerdict local_move_check(const Grid& grid, Vec2 from, Vec2 to) {
  // The post-move configuration is K = (G \ {from}) u {to}. K is connected
  // iff G \ {from} is connected and `to` touches it; both facts are decided
  // from current occupancy around the two cells.
  bool attaches = false;
  for (Direction d : all_directions()) {
    const Vec2 q = to + delta(d);
    if (q != from && WorldView(grid).occupied(q)) {
      attaches = true;
      break;
    }
  }
  if (!attaches) return LocalVerdict::kDisconnects;  // `to` lands isolated
  return local_removal_check(grid, from);
}

namespace {

/// is_connected without stats accounting: probes that embed this as a
/// subroutine (connected_after_moves) record themselves exactly once.
/// Sets *flooded when a full flood ran.
bool is_connected_impl(const Grid& grid, bool* flooded) {
  if (grid.block_count() <= 1) return true;
  const ConnectivityHint hint = grid.connectivity_hint();
  if (hint != ConnectivityHint::kUnknown) {
    return hint == ConnectivityHint::kConnected;
  }
  FloodScratch& scratch = flood_scratch(grid.cell_count());
  *flooded = true;
  const bool connected =
      flood_fill(grid, scratch, grid.first_block_position(), nullptr, 0,
                 nullptr, 0) == grid.block_count();
  grid.set_connectivity_hint(connected ? ConnectivityHint::kConnected
                                       : ConnectivityHint::kDisconnected);
  return connected;
}

/// One probe, one counter: a probe is "fast" iff it ran no flood. A caller
/// that passes `flooded_out` also learns that a flood ran.
void count_probe(const Grid& grid, bool flooded, bool* flooded_out = nullptr) {
  grid.count_connectivity_probe(flooded);
  if (flooded && flooded_out != nullptr) *flooded_out = true;
}

}  // namespace

bool is_connected(const Grid& grid) {
  if (grid.block_count() <= 1) return true;
  bool flooded = false;
  const bool connected = is_connected_impl(grid, &flooded);
  count_probe(grid, flooded);
  return connected;
}

bool is_connected_ground_truth(const Grid& grid) {
  if (grid.block_count() <= 1) return true;
  FloodScratch& scratch = flood_scratch(grid.cell_count());
  return flood_fill(grid, scratch, grid.first_block_position(), nullptr, 0,
                    nullptr, 0) == grid.block_count();
}

NetMoveEffect net_move_effect(const std::pair<Vec2, Vec2>* moves,
                              size_t count, Vec2* vacated_out,
                              Vec2* landed_out) {
  NetMoveEffect net;
  for (size_t i = 0; i < count; ++i) {
    bool refilled = false;
    bool was_source = false;
    for (size_t j = 0; j < count; ++j) {
      refilled |= moves[j].second == moves[i].first;
      was_source |= moves[j].first == moves[i].second;
    }
    if (!refilled) {
      net.vacated = moves[i].first;
      if (vacated_out != nullptr) {
        vacated_out[net.vacated_count] = moves[i].first;
      }
      ++net.vacated_count;
    }
    if (!was_source) {
      net.landed = moves[i].second;
      if (landed_out != nullptr) landed_out[net.landed_count] = moves[i].second;
      ++net.landed_count;
    }
  }
  return net;
}

bool connected_after_moves(const Grid& grid, const std::pair<Vec2, Vec2>* moves,
                           size_t move_count, bool* flooded_out) {
  for (size_t i = 0; i < move_count; ++i) {
    SB_EXPECTS(WorldView(grid).occupied(moves[i].first),
               "hypothetical move from empty cell ", moves[i].first);
    SB_EXPECTS(grid.in_bounds(moves[i].second),
               "hypothetical move to off-surface cell ", moves[i].second);
  }
  const size_t total = grid.block_count();
  if (total <= 1) return true;

  // Net effect of the batch: handover chains (A->B while B->C) keep the
  // intermediate cells occupied, so only sources nobody lands on are truly
  // vacated, and only destinations nobody leaves are truly new.
  constexpr size_t kMaxInline = 8;
  std::array<Vec2, kMaxInline> vacated_buf;
  std::array<Vec2, kMaxInline> landed_buf;
  std::vector<Vec2> vacated_heap;
  std::vector<Vec2> landed_heap;
  Vec2* vacated = vacated_buf.data();
  Vec2* landed = landed_buf.data();
  if (move_count > kMaxInline) {
    vacated_heap.resize(move_count);
    landed_heap.resize(move_count);
    vacated = vacated_heap.data();
    landed = landed_heap.data();
  }
  const NetMoveEffect net =
      net_move_effect(moves, move_count, vacated, landed);
  const size_t vacated_count = net.vacated_count;

  bool flooded = false;
  if (vacated_count == 0 && net.landed_count == 0) {
    const bool connected = is_connected_impl(grid, &flooded);
    count_probe(grid, flooded, flooded_out);
    return connected;
  }

  if (vacated_count == 1 && net.landed_count == 1 &&
      is_connected_impl(grid, &flooded)) {
    switch (local_move_check(grid, net.vacated, net.landed)) {
      case LocalVerdict::kPreservesConnectivity:
        count_probe(grid, flooded, flooded_out);
        return true;
      case LocalVerdict::kDisconnects:
        count_probe(grid, flooded, flooded_out);
        return false;
      case LocalVerdict::kInconclusive:
        break;
    }
  }

  // Slow path: flood the hypothetical configuration. The overlay fills all
  // destinations and vacates the net sources; any destination is a valid
  // seed (it is occupied afterwards).
  constexpr size_t kMaxInlineFilled = 8;
  std::array<Vec2, kMaxInlineFilled> filled_buf;
  std::vector<Vec2> filled_heap;
  Vec2* filled = filled_buf.data();
  if (move_count > kMaxInlineFilled) {
    filled_heap.resize(move_count);
    filled = filled_heap.data();
  }
  for (size_t i = 0; i < move_count; ++i) filled[i] = moves[i].second;
  const Vec2 start = net.landed_count > 0 ? landed[0] : moves[0].second;
  FloodScratch& scratch = flood_scratch(grid.cell_count());
  count_probe(grid, /*flooded=*/true, flooded_out);
  return flood_fill(grid, scratch, start, vacated, vacated_count, filled,
                    move_count) == total;
}

bool connected_after_moves(const Grid& grid,
                           const std::vector<std::pair<Vec2, Vec2>>& moves) {
  return connected_after_moves(grid, moves.data(), moves.size());
}

bool is_single_line(const Grid& grid) {
  const size_t n = grid.block_count();
  if (n <= 1) return true;
  for (int32_t y = 0; y < grid.height(); ++y) {
    if (grid.blocks_in_row(y) == n) return true;
  }
  for (int32_t x = 0; x < grid.width(); ++x) {
    if (grid.blocks_in_column(x) == n) return true;
  }
  return false;
}

bool single_line_after_moves(const Grid& grid,
                             const std::pair<Vec2, Vec2>* moves,
                             size_t move_count) {
  for (size_t i = 0; i < move_count; ++i) {
    SB_EXPECTS(grid.in_bounds(moves[i].first) &&
                   grid.in_bounds(moves[i].second),
               "hypothetical move ", moves[i].first, " -> ", moves[i].second,
               " leaves the surface");
  }
  const size_t n = grid.block_count();
  if (n <= 1) return true;
  if (move_count == 0) return is_single_line(grid);
  // Every mover ends on a destination cell, so a single-line outcome can
  // only be the destinations' shared column (or row). Adjust that line's
  // block count by the moves crossing it; each source decrements, each
  // destination increments, so handover chains net out.
  const Vec2 reference = moves[0].second;
  bool same_column = true;
  bool same_row = true;
  int64_t column_blocks =
      static_cast<int64_t>(grid.blocks_in_column(reference.x));
  int64_t row_blocks = static_cast<int64_t>(grid.blocks_in_row(reference.y));
  for (size_t i = 0; i < move_count; ++i) {
    const auto& [from, to] = moves[i];
    same_column &= to.x == reference.x;
    same_row &= to.y == reference.y;
    if (from.x == reference.x) --column_blocks;
    if (to.x == reference.x) ++column_blocks;
    if (from.y == reference.y) --row_blocks;
    if (to.y == reference.y) ++row_blocks;
  }
  return (same_column && column_blocks == static_cast<int64_t>(n)) ||
         (same_row && row_blocks == static_cast<int64_t>(n));
}

bool single_line_after_moves(const Grid& grid,
                             const std::vector<std::pair<Vec2, Vec2>>& moves) {
  return single_line_after_moves(grid, moves.data(), moves.size());
}

}  // namespace sb::lat
