#pragma once
// Connectivity analysis of block configurations.
//
// Remark 1 of the paper prohibits motions that disconnect the set of blocks
// (a detached block can never move again). The world uses these checks as
// the physics oracle that rejects such motions.
//
// The oracle is two-tiered so that per-candidate probes on the election hot
// path cost O(1) instead of O(N):
//
//   Fast path — an 8-neighborhood mask rule (standard in the sliding-square
//   literature): vacating a cell provably preserves connectivity when every
//   occupied orthogonal neighbor of the cell lies in a single cyclically
//   contiguous run of occupied ring cells (consecutive ring cells are
//   4-adjacent, so the run reroutes every path that used the vacated cell).
//   The rule answers most probes with one lookup in a 256-entry table,
//   indexed by the ring mask read from the padded occupancy rows.
//
//   Slow path — a generation-stamped scratch-buffer flood over the grid's
//   dense occupancy array: no hashing, no per-call allocation (the stamp
//   array is reused and never cleared). It runs only when the local rule is
//   inconclusive, and its verdict for the *current* configuration is cached
//   on the grid (ConnectivityHint), so repeated probes between mutations
//   share one flood.
//
// Both tiers are counted in Grid::connectivity_stats() and surfaced through
// SessionResult / BENCH_sim.json (docs/BENCHMARKS.md).

#include <vector>

#include "lattice/grid.hpp"

namespace sb::lat {

/// True when all blocks form one 4-connected component (vacuously true for
/// zero or one block). Uses the grid's cached hint; floods at most once per
/// grid mutation.
[[nodiscard]] bool is_connected(const Grid& grid);

/// Hint-free ground truth: always floods, never reads, writes, or counts
/// against the grid's connectivity cache. The invariant oracle
/// (src/check/oracle.hpp) uses this to cross-check cached verdicts — the
/// check is only meaningful because this path shares nothing with the
/// cache it audits.
[[nodiscard]] bool is_connected_ground_truth(const Grid& grid);

/// True when the configuration would remain connected after atomically
/// applying `moves` (pairs of from -> to). Does not mutate the grid.
/// The pointer overload lets hot callers pass a reused scratch buffer, and
/// sets `*flooded_out` when the answer needed a flood (it then depends on
/// blocks arbitrarily far away); it leaves the flag alone otherwise.
[[nodiscard]] bool connected_after_moves(const Grid& grid,
                                         const std::pair<Vec2, Vec2>* moves,
                                         size_t move_count,
                                         bool* flooded_out = nullptr);
[[nodiscard]] bool connected_after_moves(
    const Grid& grid, const std::vector<std::pair<Vec2, Vec2>>& moves);

/// Net effect of a hypothetical move batch after handover cancellation:
/// a source nobody lands on is truly vacated, a destination nobody leaves
/// is truly new. Shared by the oracle's fast path and the grid's hint
/// maintenance so the two can never diverge.
struct NetMoveEffect {
  size_t vacated_count = 0;
  size_t landed_count = 0;
  Vec2 vacated;  ///< meaningful when vacated_count == 1
  Vec2 landed;   ///< meaningful when landed_count == 1
};

/// Computes the net effect. When `vacated_out`/`landed_out` are non-null
/// they must have room for `count` entries and receive every net-vacated /
/// net-landed cell (the flood overlay needs the full lists).
[[nodiscard]] NetMoveEffect net_move_effect(
    const std::pair<Vec2, Vec2>* moves, size_t count,
    Vec2* vacated_out = nullptr, Vec2* landed_out = nullptr);

/// Verdict of the O(1) local-neighborhood tests.
enum class LocalVerdict : uint8_t {
  kPreservesConnectivity,  ///< proven safe (assuming the grid is connected)
  kDisconnects,            ///< proven to disconnect
  kInconclusive,           ///< needs the full flood
};

/// O(1) sufficient test that vacating `from` (on the surface) keeps the
/// remaining blocks connected, by the 8-neighborhood mask rule. Never
/// returns kDisconnects (a failed mask can still be globally safe).
/// Precondition for trusting kPreservesConnectivity: the grid is currently
/// connected.
[[nodiscard]] LocalVerdict local_removal_check(const Grid& grid, Vec2 from);

/// O(1) test for the net effect of a move batch that vacates `from` and
/// fills `to` (`to` must be empty). kPreservesConnectivity /
/// kDisconnects are authoritative when the grid is currently connected;
/// kInconclusive needs the flood.
[[nodiscard]] LocalVerdict local_move_check(const Grid& grid, Vec2 from,
                                            Vec2 to);

/// True when every block position lies on a single row or a single column.
/// Assumption 1 excludes such degenerate initial patterns (they cannot
/// support any motion). O(W + H) via the grid's row/column counts.
[[nodiscard]] bool is_single_line(const Grid& grid);

/// True when all blocks would lie on one row or column after the moves.
/// O(#moves) via the grid's per-row/column block counts: a single-line
/// outcome must contain every move destination, so only the destinations'
/// row/column can qualify.
[[nodiscard]] bool single_line_after_moves(
    const Grid& grid, const std::pair<Vec2, Vec2>* moves, size_t move_count);
[[nodiscard]] bool single_line_after_moves(
    const Grid& grid, const std::vector<std::pair<Vec2, Vec2>>& moves);

// -- the mask rule over many cells -------------------------------------------
//
// local_removal_check, local_move_check and the functions below share
// one routine (lattice/connectivity.cpp): it reads a cell's 8-bit ring
// mask from the three padded occupancy rows of lat::WorldState around it
// (lat::ring_mask, lattice/ring.hpp) and looks it up in the 256-entry
// table. Nothing is cached and nothing depends on the calling thread, so
// every caller gets the same verdict for the same occupancy.

/// Evaluates the removal mask for an arbitrary frontier of on-surface
/// cells, one verdict byte per cell: 1 = vacating the cell provably
/// preserves connectivity (kPreservesConnectivity), 0 = inconclusive.
void batch_removal_verdicts(const Grid& grid, const Vec2* cells, size_t count,
                            uint8_t* out);

namespace detail {

/// Removal verdicts for row `y` of the grid, one byte per cell as in
/// batch_removal_verdicts; `out` receives width() bytes.
void compute_removal_row_scalar(const Grid& grid, int32_t y, uint8_t* out);

/// Forwards to compute_removal_row_scalar. It stays only because
/// bench_e2e/layers.cpp calls it.
void compute_removal_row_wide(const Grid& grid, int32_t y, uint8_t* out);

}  // namespace detail

}  // namespace sb::lat
