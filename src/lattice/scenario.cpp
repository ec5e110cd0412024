#include "lattice/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "lattice/region.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"
#include "util/string_util.hpp"

namespace sb::lat {

Grid Scenario::to_grid() const {
  Grid grid(width, height);
  for (const auto& [id, pos] : blocks) grid.place(id, pos);
  return grid;
}

BlockId Scenario::root_id() const {
  for (const auto& [id, pos] : blocks) {
    if (pos == input) return id;
  }
  return kInvalidBlock;
}

namespace {

/// Largest surface validate() accepts, in cells: the same 2^26 bound as the
/// dense-id limit (Grid::kMaxBlockIdValue). The largest built-in surface,
/// blob10000000's 5008^2, is about 25.1M cells.
constexpr uint64_t kMaxSurfaceCells = uint64_t{1} << 26;

}  // namespace

std::vector<std::string> validate(const Scenario& s) {
  std::vector<std::string> issues;
  if (s.width <= 0 || s.height <= 0) {
    issues.push_back(fmt("surface dimensions must be positive, got {}x{}",
                         s.width, s.height));
    return issues;
  }
  const uint64_t cell_count =
      static_cast<uint64_t>(s.width) * static_cast<uint64_t>(s.height);
  if (cell_count > kMaxSurfaceCells) {
    issues.push_back(fmt("surface {}x{} has {} cells, above the limit of {}",
                         s.width, s.height, cell_count, kMaxSurfaceCells));
    return issues;
  }
  const auto in_bounds = [&](Vec2 p) {
    return p.x >= 0 && p.x < s.width && p.y >= 0 && p.y < s.height;
  };
  if (!in_bounds(s.input)) {
    issues.push_back(fmt("input {} is outside the surface", s.input));
  }
  if (!in_bounds(s.output)) {
    issues.push_back(fmt("output {} is outside the surface", s.output));
  }
  if (s.input == s.output) {
    issues.push_back("input and output must differ");
  }
  if (!issues.empty()) return issues;

  // One pass over dense marks: a bit per id (ids above the grid's dense-id
  // limit are reported, not marked) and a byte per cell, which the
  // connectivity flood below reuses.
  const auto width = static_cast<size_t>(s.width);
  const auto cell_of = [&](Vec2 p) {
    return static_cast<size_t>(p.y) * width + static_cast<size_t>(p.x);
  };
  std::vector<uint8_t> cells(width * static_cast<size_t>(s.height), 0);
  std::vector<bool> ids;
  bool invalid_seen = false;
  bool one_column = true;
  bool one_row = true;
  for (const auto& [id, pos] : s.blocks) {
    if (!id.valid()) {
      issues.push_back("invalid block id in scenario");
      if (invalid_seen) issues.push_back(fmt("duplicate block id {}", id));
      invalid_seen = true;
    } else if (id.value > Grid::kMaxBlockIdValue) {
      issues.push_back(fmt("block id {} exceeds the dense-id limit ({}); "
                           "renumber the scenario's blocks",
                           id, Grid::kMaxBlockIdValue));
    } else {
      if (id.value >= ids.size()) ids.resize(id.value + 1);
      if (ids[id.value]) issues.push_back(fmt("duplicate block id {}", id));
      ids[id.value] = true;
    }
    if (!in_bounds(pos)) {
      issues.push_back(fmt("block {} at {} is outside the surface", id, pos));
    } else if (std::exchange(cells[cell_of(pos)], uint8_t{1}) != 0) {
      issues.push_back(fmt("two blocks share cell {}", pos));
    }
    one_column &= pos.x == s.blocks.front().second.x;
    one_row &= pos.y == s.blocks.front().second.y;
  }
  if (!issues.empty()) return issues;

  if (cells[cell_of(s.input)] == 0) {
    issues.push_back(
        "no block on the input cell (Assumption 2 requires the Root at I)");
  }
  if (cells[cell_of(s.output)] != 0) {
    issues.push_back("the output cell must start empty");
  }
  // Lemma 1: a path of N-1 cells needs N blocks (one spare for the final
  // insertion); fewer than the path's cell count can never tile it.
  const int32_t path_cells = shortest_path_cells(s.input, s.output);
  if (static_cast<int32_t>(s.blocks.size()) < path_cells) {
    issues.push_back(fmt(
        "only {} blocks for a {}-cell shortest path; the path cannot be built",
        s.blocks.size(), path_cells));
  }

  // Assumption 1: flood from any block, marking reached cells 1 -> 2. A
  // neighbour off the surface maps to the cell itself, already marked.
  if (!s.blocks.empty()) {
    std::vector<size_t> stack{cell_of(s.blocks.front().second)};
    cells[stack.back()] = 2;
    size_t reached = 0;
    while (!stack.empty()) {
      const size_t cell = stack.back();
      stack.pop_back();
      ++reached;
      const size_t x = cell % width;
      const size_t next[4] = {
          x + 1 < width ? cell + 1 : cell, x > 0 ? cell - 1 : cell,
          cell + width < cells.size() ? cell + width : cell,
          cell >= width ? cell - width : cell};
      for (const size_t n : next) {
        if (cells[n] == 1) {
          cells[n] = 2;
          stack.push_back(n);
        }
      }
    }
    if (reached != s.blocks.size()) {
      issues.push_back("blocks are not connected (Assumption 1)");
    }
  }
  if (s.blocks.size() > 1 && (one_column || one_row)) {
    issues.push_back(
        "blocks form a single row/column (excluded by Assumption 1: such a "
        "pattern cannot support any motion)");
  }
  return issues;
}

namespace {

[[noreturn]] void parse_fail(int line_no, const std::string& message) {
  throw std::runtime_error(
      fmt("scenario parse error at line {}: {}", line_no, message));
}

/// Parses an integer in [lo, hi]; `what` names it in the error.
int64_t parse_bounded(const std::string& token, int line_no, const char* what,
                      int64_t lo, int64_t hi) {
  const auto value = parse_int(token);
  if (!value) parse_fail(line_no, fmt("expected an integer, got '{}'", token));
  if (*value < lo || *value > hi) {
    parse_fail(line_no,
               fmt("{} {} is outside [{}, {}]", what, *value, lo, hi));
  }
  return *value;
}

/// A size or coordinate: any int32_t (validate() judges the geometry).
int32_t parse_coord(const std::string& token, int line_no,
                    const char* what = "coordinate") {
  return static_cast<int32_t>(
      parse_bounded(token, line_no, what, INT32_MIN, INT32_MAX));
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario s;
  bool saw_size = false;
  bool saw_input = false;
  bool saw_output = false;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::vector<std::string> tokens = split_ws(stripped);
    const std::string& keyword = tokens[0];
    if (keyword == "name") {
      if (tokens.size() != 2) parse_fail(line_no, "name expects one token");
      s.name = tokens[1];
    } else if (keyword == "size") {
      if (tokens.size() != 3) parse_fail(line_no, "size expects W H");
      s.width = parse_coord(tokens[1], line_no, "size");
      s.height = parse_coord(tokens[2], line_no, "size");
      saw_size = true;
    } else if (keyword == "input") {
      if (tokens.size() != 3) parse_fail(line_no, "input expects x y");
      s.input = {parse_coord(tokens[1], line_no),
                 parse_coord(tokens[2], line_no)};
      saw_input = true;
    } else if (keyword == "output") {
      if (tokens.size() != 3) parse_fail(line_no, "output expects x y");
      s.output = {parse_coord(tokens[1], line_no),
                  parse_coord(tokens[2], line_no)};
      saw_output = true;
    } else if (keyword == "block") {
      if (tokens.size() != 4) parse_fail(line_no, "block expects id x y");
      // UINT32_MAX is kInvalidBlock, so the largest id is one below it.
      const auto id = static_cast<uint32_t>(parse_bounded(
          tokens[1], line_no, "block id", 0, int64_t{UINT32_MAX} - 1));
      s.blocks.emplace_back(BlockId{id},
                            Vec2{parse_coord(tokens[2], line_no),
                                 parse_coord(tokens[3], line_no)});
    } else {
      parse_fail(line_no, fmt("unknown keyword '{}'", keyword));
    }
  }
  if (!saw_size) throw std::runtime_error("scenario is missing 'size'");
  if (!saw_input) throw std::runtime_error("scenario is missing 'input'");
  if (!saw_output) throw std::runtime_error("scenario is missing 'output'");
  return s;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(fmt("cannot open scenario '{}'", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str());
}

long parse_sized_scenario_name(const std::string& name, const char* prefix) {
  const size_t len = std::char_traits<char>::length(prefix);
  if (name.rfind(prefix, 0) != 0 || name.size() <= len ||
      name.find_first_not_of("0123456789", len) != std::string::npos) {
    return -1;
  }
  return std::strtol(name.c_str() + len, nullptr, 10);
}

Scenario resolve_scenario(const std::string& name, uint64_t master_seed) {
  if (const long blocks = parse_sized_scenario_name(name, "tower");
      blocks >= 0) {
    if (blocks >= 4 && blocks <= 10'000'000 && blocks % 2 == 0) {
      return make_tower_scenario(static_cast<int32_t>(blocks / 2));
    }
    throw std::runtime_error("tower<N> needs an even N >= 4, got '" + name +
                             "'");
  }
  if (const long blocks = parse_sized_scenario_name(name, "blob");
      blocks >= 0) {
    if (blocks >= 64 && blocks <= 10'000'000) {
      return make_giant_blob_scenario(static_cast<int32_t>(blocks),
                                      master_seed);
    }
    throw std::runtime_error("blob<N> needs 64 <= N <= 10000000, got '" +
                             name + "'");
  }
  if (const long blocks = parse_sized_scenario_name(name, "rect");
      blocks >= 0) {
    if (blocks >= 64 && blocks <= 10'000'000) {
      return make_giant_rect_scenario(static_cast<int32_t>(blocks));
    }
    throw std::runtime_error("rect<N> needs 64 <= N <= 10000000, got '" +
                             name + "'");
  }
  if (name == "fig10") return make_fig10_scenario();
  // The generators above assert validity; a file is checked here, so a bad
  // one is an error and never reaches the session's precondition.
  Scenario scenario = load_scenario(name);  // throws on a bad path
  const std::vector<std::string> issues = validate(scenario);
  if (!issues.empty()) {
    throw std::runtime_error(
        fmt("scenario '{}' is invalid: {}", name, issues.front()));
  }
  return scenario;
}

std::string serialize_scenario(const Scenario& s) {
  std::ostringstream os;
  os << "# smartblocks scenario\n";
  os << "name " << s.name << "\n";
  os << "size " << s.width << ' ' << s.height << "\n";
  os << "input " << s.input.x << ' ' << s.input.y << "\n";
  os << "output " << s.output.x << ' ' << s.output.y << "\n";
  for (const auto& [id, pos] : s.blocks) {
    os << "block " << id.value << ' ' << pos.x << ' ' << pos.y << "\n";
  }
  return os.str();
}

Scenario make_fig10_scenario() {
  // Twelve blocks, I and O in the same column, shortest path of 11 cells
  // (paper §V.D: "shortest path distance ... equal to eleven"); exactly one
  // spare block remains off-path at the end, as in Fig 11 (block #2 there).
  // The blob is two columns of six: the path-seed column on x=1 (Root at I)
  // and a feeder lane on x=2. Lane blocks climb along the growing path,
  // are carried over its top by the block behind them (the paper's
  // "block #5 carries block #9" steps), and slide in; the lane's last
  // block ends as the off-path spare that Lemma 1 requires. Ids are
  // assigned row-major through the initial 2x6 blob.
  Scenario s;
  s.name = "fig10";
  s.width = 6;
  s.height = 12;
  s.input = {1, 0};
  s.output = {1, 10};
  uint32_t next_id = 1;
  for (int32_t y = 0; y < 6; ++y) {
    for (int32_t x = 1; x < 3; ++x) {
      s.blocks.emplace_back(BlockId{next_id++}, Vec2{x, y});
    }
  }
  SB_ENSURES(validate(s).empty(), "fig10 scenario must be valid");
  return s;
}

Scenario make_tower_scenario(int32_t half_height) {
  SB_EXPECTS(half_height >= 2, "towers need at least two rows, got ",
             half_height);
  Scenario s;
  const int32_t k = half_height;
  s.name = fmt("tower{}", 2 * k);
  s.width = 5;
  s.height = 2 * k;
  s.input = {1, 0};
  s.output = {1, 2 * k - 2};
  uint32_t next_id = 1;
  for (int32_t y = 0; y < k; ++y) {
    for (int32_t x = 1; x < 3; ++x) {
      s.blocks.emplace_back(BlockId{next_id++}, Vec2{x, y});
    }
  }
  SB_ENSURES(validate(s).empty(), "tower scenario must be valid");
  return s;
}

Scenario make_lpath_scenario(int32_t leg_x, int32_t leg_y,
                             int32_t column_seed) {
  SB_EXPECTS(leg_x >= 2 && leg_y >= 3, "degenerate L-path legs");
  SB_EXPECTS(column_seed >= 2 && column_seed < leg_y,
             "column seed must cover part of the vertical leg");
  // The feeder lane may not stand taller than the seeded column: lane
  // blocks above the seed have no lateral support and could never move
  // (the same invariant the tower family satisfies by construction).
  SB_EXPECTS(2 * column_seed >= leg_y + 1,
             "column seed too short for the required feeder lane: need "
             "2*seed >= leg_y + 1");
  Scenario s;
  s.name = fmt("lpath{}x{}", leg_x, leg_y);
  const int32_t corner_x = leg_x;  // I=(1,1): leg cells x=1..leg_x at y=1
  s.width = corner_x + 3;          // room for the feeder lane + clearance
  s.height = leg_y + 2;
  s.input = {1, 1};
  s.output = {corner_x, leg_y};
  uint32_t id = 1;
  // First leg, fully seeded (these cells are frozen path from the start).
  for (int32_t x = 1; x <= corner_x; ++x) {
    s.blocks.emplace_back(BlockId{id++}, Vec2{x, 1});
  }
  // Partial column seed above the corner.
  for (int32_t y = 2; y <= column_seed; ++y) {
    s.blocks.emplace_back(BlockId{id++}, Vec2{corner_x, y});
  }
  // East feeder lane beside the column: enough for the remaining cells
  // plus the final-carry spare.
  const int32_t entries = leg_y - column_seed;
  for (int32_t j = 0; j <= entries; ++j) {
    s.blocks.emplace_back(BlockId{id++}, Vec2{corner_x + 1, 1 + j});
  }
  SB_ENSURES(validate(s).empty(), "lpath scenario must be valid");
  return s;
}

Scenario make_rectangle_scenario(int32_t surface_w, int32_t surface_h,
                                 Vec2 origin, int32_t w, int32_t h,
                                 Vec2 input, Vec2 output) {
  Scenario s;
  s.name = fmt("rect{}x{}", w, h);
  s.width = surface_w;
  s.height = surface_h;
  s.input = input;
  s.output = output;
  uint32_t next_id = 1;
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      s.blocks.emplace_back(BlockId{next_id++},
                            Vec2{origin.x + x, origin.y + y});
    }
  }
  return s;
}

namespace {

/// A set of cells under the row-major cell index, which orders cells as
/// Vec2's operator< does: a bitmap of 64-cell words under levels of member
/// counts, each entry counting kFanout entries of the level below. insert
/// and erase flip one bit and bump one count per level, so they cost
/// O(log cells) and move nothing; nth(k), the k-th member in that order,
/// walks down the levels, skipping whole entries while their counts stay
/// at or below k, and then walks the bits of the word it reaches.
class CellPool {
 public:
  explicit CellPool(size_t cell_count) : words_((cell_count + 63) / 64, 0) {
    size_t entries = words_.size();
    do {
      entries = (entries + kFanout - 1) / kFanout;
      levels_.emplace_back(entries, 0);
    } while (entries > kFanout);
  }

  [[nodiscard]] bool contains(size_t cell) const {
    return (words_[cell / 64] >> (cell % 64) & 1) != 0;
  }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// `cell` must not be a member.
  void insert(size_t cell) {
    words_[cell / 64] |= uint64_t{1} << (cell % 64);
    ++size_;
    size_t entry = cell / 64;
    for (std::vector<uint32_t>& level : levels_) ++level[entry /= kFanout];
  }

  /// `cell` must be a member.
  void erase(size_t cell) {
    words_[cell / 64] &= ~(uint64_t{1} << (cell % 64));
    --size_;
    size_t entry = cell / 64;
    for (std::vector<uint32_t>& level : levels_) --level[entry /= kFanout];
  }

  /// The cell of the k-th member in row-major order; k < size().
  [[nodiscard]] size_t nth(size_t k) const {
    size_t entry = 0;  // first entry of the group that holds member k
    for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
      while ((*level)[entry] <= k) k -= (*level)[entry++];
      entry *= kFanout;
    }
    const auto members = [&](size_t word) {
      return static_cast<size_t>(std::popcount(words_[word]));
    };
    while (members(entry) <= k) k -= members(entry++);
    uint64_t bits = words_[entry];
    for (; k > 0; --k) bits &= bits - 1;
    return entry * 64 + static_cast<size_t>(std::countr_zero(bits));
  }

 private:
  /// Eight ties sixteen and beats a Fenwick tree's binary descent and
  /// fanouts of 32 and 64 on blob100000 and blob2000000
  /// (docs/BENCHMARKS.md "Blob generation").
  static constexpr size_t kFanout = 8;
  std::vector<uint64_t> words_;
  /// levels_[0] counts the members of each kFanout words, and each level
  /// above counts kFanout entries of the one below; the top has <= kFanout.
  std::vector<std::vector<uint32_t>> levels_;
  size_t size_ = 0;
};

Scenario try_random_blob(const BlobParams& params, Rng& rng) {
  Scenario s;
  s.name = "blob";
  s.width = params.surface_width;
  s.height = params.surface_height;
  s.input = params.input;
  s.output = params.output;

  const Rect rect = bounding_rect(params.input, params.output);
  const auto forbidden = [&](Vec2 p) {
    if (p == params.output) return true;
    if (!params.avoid_output_alignment || p == params.input) return false;
    return rect.contains(p) &&
           (p.x == params.output.x || p.y == params.output.y);
  };
  const auto in_bounds = [&](Vec2 p) {
    return p.x >= 0 && p.x < params.surface_width && p.y >= 0 &&
           p.y < params.surface_height;
  };

  // Dense state instead of hash sets, and an incrementally maintained
  // frontier instead of a full rescan per grown block: the rescan made the
  // generator O(N^2), which locked it out of the 10^5..10^6-block worlds
  // the giant benches drive. A pick takes the k-th pool member in
  // row-major order, so every draw lands on the cell the historical
  // implementation's sorted pools gave it (seeded blob layouts are pinned
  // by tests and ablation baselines).
  const size_t cell_count = static_cast<size_t>(params.surface_width) *
                            static_cast<size_t>(params.surface_height);
  const auto cell_index = [&](Vec2 p) {
    return static_cast<size_t>(p.y) *
               static_cast<size_t>(params.surface_width) +
           static_cast<size_t>(p.x);
  };
  const auto cell_at = [&](size_t cell) {
    const auto width = static_cast<size_t>(params.surface_width);
    return Vec2{static_cast<int32_t>(cell % width),
                static_cast<int32_t>(cell / width)};
  };
  std::vector<uint8_t> occupied(cell_count, 0);
  std::vector<uint8_t> support(cell_count, 0);  // occupied-neighbor counts
  occupied[cell_index(params.input)] = 1;
  size_t blob_size = 1;

  // Pockets — frontier cells with >= 2 occupied neighbours, the
  // compactness bias pool — are maintained incrementally: a cell's support
  // only grows, so it enters the pocket pool exactly once, when its count
  // reaches two.
  CellPool frontier(cell_count);  // empty legal cells touching the blob
  CellPool pockets(cell_count);
  const auto add_frontier_around = [&](Vec2 p) {
    for (Direction d : all_directions()) {
      const Vec2 q = p + delta(d);
      if (!in_bounds(q)) continue;
      const size_t qi = cell_index(q);
      if (occupied[qi] || frontier.contains(qi) || forbidden(q)) continue;
      uint8_t count = 0;
      for (Direction e : all_directions()) {
        const Vec2 r = q + delta(e);
        count += in_bounds(r) && occupied[cell_index(r)] ? 1 : 0;
      }
      support[qi] = count;
      frontier.insert(qi);
      if (count >= 2) pockets.insert(qi);
    }
  };
  add_frontier_around(params.input);

  while (static_cast<int32_t>(blob_size) < params.block_count) {
    SB_ASSERT(!frontier.empty(),
              "random blob cannot grow to ", params.block_count,
              " blocks on a ", params.surface_width, "x",
              params.surface_height, " surface");
    // Compactness bias: prefer pockets so the blob stays locally
    // two-dimensional and hence physically mobile.
    const bool use_pockets =
        !pockets.empty() && rng.next_bool(params.compactness);
    const CellPool& pool = use_pockets ? pockets : frontier;
    const size_t pick_cell = pool.nth(rng.pick_index(pool));
    const Vec2 pick = cell_at(pick_cell);
    occupied[pick_cell] = 1;
    frontier.erase(pick_cell);
    if (pockets.contains(pick_cell)) pockets.erase(pick_cell);
    ++blob_size;
    // Existing frontier neighbours gained support; promote fresh pockets.
    for (Direction d : all_directions()) {
      const Vec2 q = pick + delta(d);
      if (!in_bounds(q)) continue;
      const size_t qi = cell_index(q);
      if (frontier.contains(qi) && ++support[qi] == 2) pockets.insert(qi);
    }
    add_frontier_around(pick);
  }

  // Ids are assigned in row-major (sorted) order over the grown blob.
  s.blocks.reserve(blob_size);
  uint32_t next_id = 1;
  for (int32_t y = 0; y < params.surface_height; ++y) {
    for (int32_t x = 0; x < params.surface_width; ++x) {
      if (occupied[cell_index({x, y})]) {
        s.blocks.emplace_back(BlockId{next_id++}, Vec2{x, y});
      }
    }
  }
  return s;
}

}  // namespace

Scenario random_blob_scenario(const BlobParams& params, Rng& rng) {
  SB_EXPECTS(params.block_count >=
                 shortest_path_cells(params.input, params.output),
             "block_count must cover the shortest path");
  for (int attempt = 0; attempt < 100; ++attempt) {
    Scenario s = try_random_blob(params, rng);
    if (validate(s).empty()) return s;
  }
  SB_UNREACHABLE("random_blob_scenario failed to produce a valid scenario; "
                 "parameters are too constrained");
}

Scenario make_giant_blob_scenario(int32_t block_count, uint64_t seed) {
  SB_EXPECTS(block_count >= 64,
             "giant blobs start at 64 blocks; use random_blob_scenario "
             "with explicit parameters below that");
  // Square surface with ~2.5 empty-ish cells per block: room to grow a
  // compact blob plus working space around it.
  int32_t side = 8;
  while (static_cast<int64_t>(side) * side < static_cast<int64_t>(
             block_count) * 5 / 2) {
    ++side;
  }
  side += 8;
  BlobParams params;
  params.surface_width = side;
  params.surface_height = side;
  params.input = {2, 2};
  params.output = {side - 3, side - 3};
  params.block_count = block_count;
  Rng rng(seed);
  Scenario s = random_blob_scenario(params, rng);
  s.name = fmt("blob{}", block_count);
  return s;
}

Scenario make_giant_rect_scenario(int32_t block_count) {
  SB_EXPECTS(block_count >= 64,
             "giant rectangles start at 64 blocks; use "
             "make_rectangle_scenario with explicit parameters below that");
  int32_t w = 8;
  while (w * w < block_count) ++w;
  const int32_t h = (block_count + w - 1) / w;
  const Vec2 origin{1, 1};
  const Vec2 input = origin;                  // south-west corner block
  const Vec2 output{w + 2, h + 2};            // two cells past the corner
  Scenario s = make_rectangle_scenario(w + 4, h + 4, origin, w, h, input,
                                       output);
  s.name = fmt("rect{}", w * h);
  SB_ENSURES(validate(s).empty(), "giant rect scenario must be valid");
  return s;
}

}  // namespace sb::lat
