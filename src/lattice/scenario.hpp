#pragma once
// Scenario = surface dimensions + input/output cells + initial block layout.
//
// Scenarios are stored in a small line-oriented text format:
//
//   # comment
//   name   fig10
//   size   6 12
//   input  1 0
//   output 1 11
//   block  2 1 0        <- id x y ; the block on the input cell is the Root
//   ...
//
// Generators for the paper's example (Figs 10-11) and for randomized
// experiment sweeps live here too.

#include <string>
#include <vector>

#include "lattice/grid.hpp"
#include "util/rng.hpp"

namespace sb::lat {

struct Scenario {
  std::string name = "unnamed";
  int32_t width = 0;
  int32_t height = 0;
  Vec2 input;
  Vec2 output;
  /// (id, position) pairs; ids must be unique, positions distinct.
  std::vector<std::pair<BlockId, Vec2>> blocks;

  /// Materializes the occupancy grid.
  [[nodiscard]] Grid to_grid() const;

  /// Id of the block initially on the input cell (the Root).
  [[nodiscard]] BlockId root_id() const;

  [[nodiscard]] size_t block_count() const { return blocks.size(); }
};

/// Checks the scenario against the paper's assumptions. Returns a list of
/// human-readable problems; empty means valid. Checked: a surface of at
/// most 2^26 cells (before anything is allocated), bounds, distinct
/// ids/cells, ids within Grid::kMaxBlockIdValue, a block on I, O initially
/// free, connectivity (Assumption 1/2), non-degenerate 2-D topology, and
/// that enough blocks exist to tile the shortest path (Lemma 1 needs
/// N >= manhattan(I,O)+1). One pass over the blocks, on dense marks (a bit
/// per id, a byte per cell).
[[nodiscard]] std::vector<std::string> validate(const Scenario& scenario);

/// Parses the text format. Throws std::runtime_error with a line number on
/// malformed input, including ids outside [0, 2^32 - 2] and sizes or
/// coordinates outside int32_t.
[[nodiscard]] Scenario parse_scenario(const std::string& text);

/// Loads a scenario file.
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// Parses a sized scenario name "<prefix><digits>" (e.g. "tower64",
/// "blob10000") and returns the number, or -1 when `name` does not match
/// the prefix + digits shape.
[[nodiscard]] long parse_sized_scenario_name(const std::string& name,
                                             const char* prefix);

/// Resolves a scenario by CLI-style name — the one scenario vocabulary
/// shared by tools/sweep, examples/large_scale, and the benches:
///   tower<N>   Lemma-1 tower of N blocks (even N >= 4)
///   blob<N>    giant random blob, 64 <= N <= 10000000 (seeded by
///              `master_seed`)
///   rect<N>    giant block rectangle, 64 <= N <= 10000000
///   fig10      the paper's Figs 10-11 example
///   <path>     anything else is loaded as a .surf scenario file and
///              validated
/// Throws std::runtime_error with a usage-style message on bad names,
/// out-of-range sizes, unreadable or malformed files, and files that fail
/// validate() (the message names the file and its first issue).
[[nodiscard]] Scenario resolve_scenario(const std::string& name,
                                        uint64_t master_seed = 0x5eedULL);

/// Serializes to the text format (round-trips through parse_scenario).
[[nodiscard]] std::string serialize_scenario(const Scenario& scenario);

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// The twelve-block example of the paper's §V.D and Figs 10-11: I and O in
/// the same column, an 11-cell shortest path, twelve blocks initially
/// packed in a connected two-column blob around I; exactly one block ends
/// off-path (the paper's block #2).
[[nodiscard]] Scenario make_fig10_scenario();

/// Scalable version of the fig10 geometry for the complexity sweeps
/// (Remarks 2-4): two columns of `half_height` blocks (N = 2k total), with
/// O placed so the shortest path has exactly N - 1 cells - Lemma 1's
/// extremal case (one spare block). Completes deterministically under the
/// default configuration.
[[nodiscard]] Scenario make_tower_scenario(int32_t half_height);

/// Diagonal-I/O task for the canonical-monotone path extension: I sits at
/// the west end of a seeded row (the path's first leg), O at the top of a
/// column above the row's east end (the second leg). A corner tower -
/// partial column seed plus an east feeder lane - supplies the column
/// exactly as in the tower family. Requires PathShape::kCanonicalMonotone;
/// under the paper's aligned-only metric this scenario blocks.
///   leg_x       horizontal leg length in cells (>= 2), I=(1,1) to (leg_x,1)
///   leg_y       vertical leg height in cells (>= 3), up to O
///   column_seed initially occupied cells of the vertical leg (>= 2)
[[nodiscard]] Scenario make_lpath_scenario(int32_t leg_x, int32_t leg_y,
                                           int32_t column_seed);

/// A w x h rectangle of blocks whose south-west corner sits at `origin`.
[[nodiscard]] Scenario make_rectangle_scenario(int32_t surface_w,
                                               int32_t surface_h, Vec2 origin,
                                               int32_t w, int32_t h,
                                               Vec2 input, Vec2 output);

/// Parameters for random_blob_scenario().
struct BlobParams {
  int32_t surface_width = 0;
  int32_t surface_height = 0;
  Vec2 input;
  Vec2 output;
  /// Total number of blocks, including the Root; must cover the path
  /// (>= manhattan(input, output) + 1).
  int32_t block_count = 0;
  /// When true (default) the blob avoids cells aligned with O inside the
  /// I/O rectangle, so no block starts frozen on the future path.
  bool avoid_output_alignment = true;
  /// Probability of restricting each growth step to frontier cells with at
  /// least two occupied neighbours. Uniform growth (0.0) produces 1-high
  /// tendrils that the paper's motion rules physically cannot move (the
  /// reason Assumption 1 excludes line patterns); the default keeps blobs
  /// locally two-dimensional.
  double compactness = 0.85;
};

/// Grows a random connected blob from the input cell. Deterministic for a
/// given RNG state; the result always satisfies validate(). The frontier is
/// maintained incrementally in rank-select bitmaps, so each grown block
/// costs O(log surface cells) and an attempt O(N log cells) plus a pass
/// over the surface (docs/BENCHMARKS.md "Blob generation").
[[nodiscard]] Scenario random_blob_scenario(const BlobParams& params,
                                            Rng& rng);

/// Convenience wrapper for the giant-scenario benches (docs/BENCHMARKS.md):
/// a random blob of `block_count` blocks on a self-sized square surface,
/// input near the south-west corner, output near the north-east. Requires
/// block_count >= 64. Deterministic for a given seed; named
/// "blob<block_count>".
[[nodiscard]] Scenario make_giant_blob_scenario(int32_t block_count,
                                                uint64_t seed);

/// Giant-rectangle companion: a near-square w x h block rectangle of about
/// `block_count` blocks (rounded to w*h) on a self-sized surface, input at
/// the rectangle's south-west corner, output two cells beyond its
/// north-east corner. Requires block_count >= 64; named
/// "rect<actual_count>".
[[nodiscard]] Scenario make_giant_rect_scenario(int32_t block_count);

}  // namespace sb::lat
