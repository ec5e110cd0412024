#pragma once
// Seeded random scenario generator for the differential fuzzer.
//
// generate_case(seed) derives everything — surface shape, block layout,
// latency model, tie policy, timing knobs, churn plan — from one uint64
// seed, so every case is reproducible from its seed alone (the repro file
// exists so a *minimized* case survives generator evolution).
//
// The generator is biased adversarial: besides compact blobs it produces
// loose tendril growth (the shapes Assumption 1 exists to exclude), blobs
// with carved-out pockets, dumbbells joined by a 1-2 cell bridge (one move
// away from disconnection), and near-degenerate I/O placements. Every
// emitted scenario still satisfies lat::validate() — the fuzzer explores
// the algorithm's behaviour on hostile-but-legal inputs, not the
// constructor's error handling.

#include <cstdint>

#include "check/fuzz_case.hpp"

namespace sb::check {

struct GeneratorOptions {
  /// Probability that a case carries a churn plan (kills / hot-joins).
  double churn_rate = 0.35;
  /// Force comparable knobs (kLowestId ties, no timeouts, join-only churn
  /// under fixed latency) on every case; engine-only knobs (arrival-order
  /// ties, kills, jitter beside churn) are still exercised for determinism
  /// + invariants when false.
  bool always_comparable = false;
};

/// Derives a complete fuzz case from `seed`. Deterministic; the result's
/// scenario always passes lat::validate().
[[nodiscard]] FuzzCase generate_case(uint64_t seed,
                                     const GeneratorOptions& options = {});

}  // namespace sb::check
