#include "check/generator.hpp"

#include <algorithm>

#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace sb::check {

namespace {

// One scenario family per adversarial shape the fuzzer hunts with. Weights
// live in pick_family().
enum class Family : uint8_t {
  kCompactBlob,  // the benign baseline
  kTendril,      // loose growth: 1-high arms the motion rules hate
  kPocket,       // compact blob with interior cells carved back out
  kDumbbell,     // two masses joined by a 1-2 cell bridge
  kTightIo,      // I and O almost on top of each other
};

constexpr std::string_view family_name(Family family) {
  switch (family) {
    case Family::kCompactBlob: return "compact-blob";
    case Family::kTendril: return "tendril-blob";
    case Family::kPocket: return "pocket-blob";
    case Family::kDumbbell: return "dumbbell";
    case Family::kTightIo: return "tight-io";
  }
  return "?";
}

Family pick_family(Rng& rng) {
  const uint64_t roll = rng.next_below(100);
  if (roll < 25) return Family::kCompactBlob;
  if (roll < 45) return Family::kTendril;
  if (roll < 65) return Family::kPocket;
  if (roll < 85) return Family::kDumbbell;
  return Family::kTightIo;
}

/// Surface dims + I/O placement shared by the blob families. `min_dist` /
/// `max_dist` bound manhattan(I, O).
struct Frame {
  int32_t width = 0;
  int32_t height = 0;
  lat::Vec2 input;
  lat::Vec2 output;
};

Frame pick_frame(Rng& rng, int32_t min_dist, int32_t max_dist) {
  Frame frame;
  frame.width = static_cast<int32_t>(rng.next_in(8, 24));
  frame.height = static_cast<int32_t>(rng.next_in(8, 24));
  frame.input = {static_cast<int32_t>(rng.next_in(1, frame.width / 3)),
                 static_cast<int32_t>(rng.next_in(1, frame.height / 3))};
  for (int tries = 0; tries < 64; ++tries) {
    const lat::Vec2 candidate{
        static_cast<int32_t>(rng.next_in(0, frame.width - 1)),
        static_cast<int32_t>(rng.next_in(0, frame.height - 1))};
    const int32_t dist = lat::manhattan(frame.input, candidate);
    if (dist >= min_dist && dist <= max_dist) {
      frame.output = candidate;
      return frame;
    }
  }
  // Nothing in range after 64 draws; take the far corner and let the
  // validate() retry loop sort out degenerate frames.
  frame.output = {frame.width - 1, frame.height - 1};
  return frame;
}

int32_t pick_block_count(Rng& rng, const Frame& frame) {
  const int32_t path_cells = lat::manhattan(frame.input, frame.output) + 1;
  const int32_t area_cap =
      std::max(path_cells + 2, frame.width * frame.height / 3);
  const int32_t lo = std::max<int32_t>(12, path_cells);
  const int32_t hi = std::max(lo + 1, std::min<int32_t>(100, area_cap));
  return static_cast<int32_t>(rng.next_in(lo, hi));
}

lat::Scenario blob(Rng& rng, const Frame& frame, double compactness) {
  lat::BlobParams params;
  params.surface_width = frame.width;
  params.surface_height = frame.height;
  params.input = frame.input;
  params.output = frame.output;
  params.block_count = pick_block_count(rng, frame);
  params.compactness = compactness;
  return lat::random_blob_scenario(params, rng);
}

lat::Scenario compact_blob(Rng& rng) {
  return blob(rng, pick_frame(rng, 6, 28), 0.85);
}

lat::Scenario tendril_blob(Rng& rng) {
  return blob(rng, pick_frame(rng, 6, 28), rng.next_double_in(0.0, 0.4));
}

/// Compact blob, then carve interior pockets: repeatedly drop a random
/// non-root block and keep the removal only if the scenario stays valid
/// (connected, path coverable). Produces concave boundaries and holes the
/// frozen-path rule must route around.
lat::Scenario pocket_blob(Rng& rng) {
  lat::Scenario scenario = blob(rng, pick_frame(rng, 6, 24), 0.9);
  const size_t carve_attempts = scenario.blocks.size() / 3;
  for (size_t i = 0; i < carve_attempts; ++i) {
    const size_t victim = 1 + rng.pick_index(scenario.blocks) %
                                  (scenario.blocks.size() - 1);
    if (scenario.blocks[victim].second == scenario.input) continue;
    const auto removed = scenario.blocks[victim];
    scenario.blocks.erase(scenario.blocks.begin() +
                          static_cast<ptrdiff_t>(victim));
    if (!lat::validate(scenario).empty()) {
      scenario.blocks.insert(
          scenario.blocks.begin() + static_cast<ptrdiff_t>(victim), removed);
    }
  }
  scenario.name = "pocket";
  return scenario;
}

/// Two block rectangles joined by a 1-2 cell high bridge: one elected move
/// near the bridge away from a disconnection verdict, so the connectivity
/// rule and its cache carry the run.
lat::Scenario dumbbell(Rng& rng) {
  lat::Scenario scenario;
  scenario.name = "dumbbell";
  const int32_t left_w = static_cast<int32_t>(rng.next_in(3, 5));
  const int32_t left_h = static_cast<int32_t>(rng.next_in(3, 6));
  const int32_t right_w = static_cast<int32_t>(rng.next_in(3, 5));
  const int32_t right_h = static_cast<int32_t>(rng.next_in(3, 6));
  const int32_t bridge_w = static_cast<int32_t>(rng.next_in(2, 5));
  const int32_t bridge_h = static_cast<int32_t>(rng.next_in(1, 2));
  scenario.width = 1 + left_w + bridge_w + right_w + 2 +
                   static_cast<int32_t>(rng.next_in(0, 3));
  const int32_t tallest = std::max(left_h, right_h);
  const int32_t base = static_cast<int32_t>(rng.next_in(1, 3));
  scenario.height = base + tallest + 2 + static_cast<int32_t>(rng.next_in(0, 3));

  uint32_t next_id = 1;
  const auto fill = [&](int32_t x0, int32_t y0, int32_t w, int32_t h) {
    for (int32_t y = y0; y < y0 + h; ++y) {
      for (int32_t x = x0; x < x0 + w; ++x) {
        scenario.blocks.emplace_back(lat::BlockId{next_id++}, lat::Vec2{x, y});
      }
    }
  };
  const int32_t left_x = 1;
  const int32_t bridge_x = left_x + left_w;
  const int32_t right_x = bridge_x + bridge_w;
  fill(left_x, base, left_w, left_h);
  fill(bridge_x, base, bridge_w, bridge_h);
  fill(right_x, base, right_w, right_h);

  scenario.input = {left_x, base};
  // O just past the right mass: every path crosses the bridge.
  scenario.output = {right_x + right_w + 1,
                     base + static_cast<int32_t>(
                                rng.next_in(0, std::max(0, right_h - 1)))};
  return scenario;
}

/// Compact blob with O a couple of cells from I: termination fires almost
/// immediately, racing completion against in-flight elections and motions.
lat::Scenario tight_io(Rng& rng) {
  return blob(rng, pick_frame(rng, 2, 4), 0.85);
}

lat::Scenario build_scenario(Family family, Rng& rng) {
  switch (family) {
    case Family::kCompactBlob: return compact_blob(rng);
    case Family::kTendril: return tendril_blob(rng);
    case Family::kPocket: return pocket_blob(rng);
    case Family::kDumbbell: return dumbbell(rng);
    case Family::kTightIo: return tight_io(rng);
  }
  return compact_blob(rng);
}

}  // namespace

FuzzCase generate_case(uint64_t seed, const GeneratorOptions& options) {
  Rng rng(seed ^ 0xf0220f0220f0220fULL);  // salt so seed 0 still mixes

  FuzzCase fuzz_case;
  fuzz_case.seed = seed;

  Family family = pick_family(rng);
  for (int attempt = 0;; ++attempt) {
    fuzz_case.scenario = build_scenario(family, rng);
    if (lat::validate(fuzz_case.scenario).empty()) break;
    // Hostile frame didn't come together; after a few tries fall back to
    // the family random_blob_scenario guarantees valid.
    if (attempt >= 8) family = Family::kCompactBlob;
  }
  fuzz_case.scenario.name = std::string(family_name(family));
  fuzz_case.name =
      fmt("{}-{}", family_name(family), fuzz_case.scenario.block_count());

  // Churn first: a kill forces the ack-timeout recovery machinery on, and
  // timeout-vs-delivery ordering at equal ticks is schedule-dependent (see
  // FuzzCase::comparable) — so kill cases are engine-only by construction.
  bool any_kill = false;
  if (rng.next_bool(options.churn_rate)) {
    const size_t ops = 1 + rng.next_below(3);
    for (size_t i = 0; i < ops; ++i) {
      ChurnOp op;
      op.kind = rng.next_bool(0.6) ? ChurnOp::Kind::kKill
                                   : ChurnOp::Kind::kJoin;
      if (options.always_comparable) op.kind = ChurnOp::Kind::kJoin;
      any_kill = any_kill || op.kind == ChurnOp::Kind::kKill;
      op.at = static_cast<sim::SimTime>(rng.next_in(80, 1200));
      op.ordinal = rng.next();
      fuzz_case.churn.push_back(op);
    }
    std::sort(fuzz_case.churn.begin(), fuzz_case.churn.end(),
              [](const ChurnOp& a, const ChurnOp& b) { return a.at < b.at; });
    if (any_kill) {
      // Dead blocks stall elections forever without the ack-timeout
      // recovery extension; arm it so kill cases still make progress.
      fuzz_case.ack_timeout = static_cast<sim::Ticks>(rng.next_in(300, 1000));
    }
  }

  fuzz_case.comparable =
      options.always_comparable || (!any_kill && rng.next_bool(0.7));
  if (fuzz_case.comparable) {
    // Lowest-id ties elect the global (distance, id) minimum whatever the
    // link delays, so a churn-free case may jitter; a join lands at a fixed
    // tick, and jitter would move it against the elections (see
    // FuzzCase::comparable).
    if (fuzz_case.churn.empty() && rng.next_bool(0.5)) {
      fuzz_case.latency_kind = "uniform";
      fuzz_case.latency_lo = static_cast<sim::Ticks>(rng.next_in(1, 4));
      fuzz_case.latency_hi =
          fuzz_case.latency_lo + static_cast<sim::Ticks>(rng.next_in(1, 8));
    } else {
      fuzz_case.latency_kind = "fixed";
      fuzz_case.latency_lo = static_cast<sim::Ticks>(rng.next_in(1, 8));
      fuzz_case.latency_hi = fuzz_case.latency_lo;
    }
    fuzz_case.election_tie = core::ElectionTie::kLowestId;
  } else if (rng.next_bool(0.5)) {
    fuzz_case.latency_kind = "uniform";
    fuzz_case.latency_lo = static_cast<sim::Ticks>(rng.next_in(1, 4));
    fuzz_case.latency_hi =
        fuzz_case.latency_lo + static_cast<sim::Ticks>(rng.next_in(1, 8));
    const core::ElectionTie ties[] = {core::ElectionTie::kFirst,
                                      core::ElectionTie::kLowestId,
                                      core::ElectionTie::kRandom};
    fuzz_case.election_tie = ties[rng.next_below(3)];
  } else {
    fuzz_case.latency_kind = "fixed";
    fuzz_case.latency_lo = static_cast<sim::Ticks>(rng.next_in(1, 8));
    fuzz_case.latency_hi = fuzz_case.latency_lo;
    fuzz_case.election_tie = rng.next_bool(0.5) ? core::ElectionTie::kFirst
                                                : core::ElectionTie::kRandom;
  }
  fuzz_case.motion_duration = static_cast<sim::Ticks>(rng.next_in(5, 15));
  // Small epoch cap: adversarial shapes can livelock (see
  // FuzzCase::max_iterations); a few hundred epochs is plenty of algorithm
  // behaviour per case and keeps every backend run bounded.
  fuzz_case.max_iterations = static_cast<uint32_t>(rng.next_in(150, 500));
  return fuzz_case;
}

}  // namespace sb::check
