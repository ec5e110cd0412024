// Experiment E9 (paper Lemma 1): any trajectory optimization problem with
// shortest-path length N-1 is solved in finite time with at most N blocks.
//
// The tower family realizes the bound exactly (N blocks, N-1 path cells):
// the bench verifies success across sizes and reports time-to-build, plus
// a randomized-blob success-rate study (blob geometries outside the
// constructive family may legitimately block; the paper's assumptions do
// not cover every blob, so this panel reports rather than asserts). Several
// seeds grow the same blob, so the panel also counts distinct blobs, and
// how many of them complete under at least one of their seeds.

#include <map>

#include "bench_common.hpp"

int main() {
  using namespace sb;
  bench::print_header(
      "E9: Lemma 1 - N blocks build an (N-1)-cell path in finite time");

  std::printf("%8s %12s %10s %12s %14s\n", "N", "path cells", "built",
              "sim ticks", "spare blocks");
  bool all_ok = true;
  for (const int32_t k : {3, 4, 6, 8, 12, 16, 24}) {
    const lat::Scenario scenario = lat::make_tower_scenario(k);
    const auto result =
        core::ReconfigurationSession::run_scenario(scenario, {});
    const auto spares = static_cast<int64_t>(result.block_count) -
                        static_cast<int64_t>(result.path_cells);
    std::printf("%8zu %12d %10s %12llu %14lld\n", result.block_count,
                result.path_cells, result.complete ? "yes" : "NO",
                static_cast<unsigned long long>(result.sim_ticks),
                static_cast<long long>(spares));
    all_ok &= result.complete && spares == 1;
  }
  std::printf("verdict: %s (every tower builds with exactly one spare)\n",
              bench::verdict(all_ok));

  bench::print_header("E9b: random-blob success-rate study (informational)");
  int complete = 0;
  int blocked = 0;
  const int trials = 40;
  // Each distinct blob's blocks -> whether any of its seeds completed.
  std::map<decltype(lat::Scenario::blocks), bool> distinct;
  for (int seed = 1; seed <= trials; ++seed) {
    lat::BlobParams params;
    params.surface_width = 10;
    params.surface_height = 10;
    params.input = {1, 1};
    params.output = {1, 7};
    params.block_count = 12;
    Rng rng(static_cast<uint64_t>(seed));
    const lat::Scenario scenario = lat::random_blob_scenario(params, rng);
    core::SessionConfig config;
    config.sim.seed = static_cast<uint64_t>(seed);
    const auto result =
        core::ReconfigurationSession::run_scenario(scenario, config);
    complete += result.complete ? 1 : 0;
    blocked += result.blocked ? 1 : 0;
    distinct[scenario.blocks] |= result.complete;
  }
  std::printf("random blobs (N=12, 7-cell path): %d/%d complete, %d "
              "diagnosed blocked\n",
              complete, trials, blocked);
  int distinct_complete = 0;
  for (const auto& [blocks, completed] : distinct) {
    distinct_complete += completed ? 1 : 0;
  }
  std::printf("distinct blobs among the %d seeds: %zu, %d of them complete\n",
              trials, distinct.size(), distinct_complete);
  std::printf("note: blob geometries outside Lemma 1's constructive flow "
              "can wedge;\nthe library always reports a clean terminal "
              "state.\n");
  return all_ok ? 0 : 1;
}
