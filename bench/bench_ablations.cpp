// Experiment E12: ablations of the design choices called out in DESIGN.md.
//
//   A1  tier-2 repositioning on/off - strictly-improving-only hops
//       (Eq (9) read literally) deadlock on geometries the full system
//       completes;
//   A2  election tie policy - kFirst / kLowestId / kRandom;
//   A3  move tie policy - prefer-enter-path vs first;
//   A5  link latency model - fixed / uniform / exponential (sim time);
//   A6  tabu capacity for tier-2 detours.

#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace sb;

core::SessionResult run_fig10(core::SessionConfig config) {
  return core::ReconfigurationSession::run_scenario(
      lat::make_fig10_scenario(), config);
}

/// A geometry that requires at least one tier-2 detour: the wide blob from
/// the development of this library (a 4x3 blob seeds both feed lanes and
/// wedges without repositioning).
lat::Scenario wide_blob() {
  lat::Scenario s;
  s.name = "wide4x3";
  s.width = 6;
  s.height = 12;
  s.input = {1, 0};
  s.output = {1, 10};
  uint32_t id = 1;
  for (int32_t y = 0; y < 3; ++y) {
    for (int32_t x = 0; x < 4; ++x) {
      s.blocks.emplace_back(lat::BlockId{id++}, lat::Vec2{x, y});
    }
  }
  return s;
}

/// A random blob whose task completes only with tier-2 repositioning.
lat::Scenario tier2_blob(uint64_t seed) {
  lat::BlobParams params;
  params.surface_width = 10;
  params.surface_height = 10;
  params.input = {1, 1};
  params.output = {1, 7};
  params.block_count = 12;
  Rng rng(seed);
  return lat::random_blob_scenario(params, rng);
}

void ablate_repositioning() {
  bench::print_header("A1: tier-2 repositioning (Eq (9) strict vs full)");
  std::printf("%-12s %-16s %10s %8s %14s\n", "scenario", "repositioning",
              "complete", "hops", "tier-2 hops");
  for (const bool allow : {true, false}) {
    for (const auto& scenario :
         {lat::make_fig10_scenario(), tier2_blob(6), tier2_blob(8),
          wide_blob()}) {
      core::SessionConfig config;
      config.allow_repositioning = allow;
      config.max_iterations = 2000;  // fail fast when wedged
      const auto result =
          core::ReconfigurationSession::run_scenario(scenario, config);
      std::printf("%-12s %-16s %10s %8llu %14llu\n", scenario.name.c_str(),
                  allow ? "on" : "off (strict)",
                  result.complete ? "yes" : "NO",
                  static_cast<unsigned long long>(result.hops),
                  static_cast<unsigned long long>(
                      result.repositioning_hops));
    }
  }
  std::printf("(the wide4x3 blob is beyond the rule set either way - its "
              "end-game needs two\nspares where one exists - and is "
              "diagnosed as blocked, not hung)\n");
}

void ablate_tie_policies() {
  bench::print_header("A2/A3: tie policies (fig10)");
  std::printf("%-28s %10s %8s %8s %10s\n", "policy", "complete", "hops",
              "moves", "messages");
  struct Case {
    const char* name;
    core::ElectionTie election;
    core::MoveTie move;
  };
  for (const Case c : {
           Case{"election=First move=Path", core::ElectionTie::kFirst,
                core::MoveTie::kPreferEnterPath},
           Case{"election=LowestId move=Path", core::ElectionTie::kLowestId,
                core::MoveTie::kPreferEnterPath},
           Case{"election=Random move=Path", core::ElectionTie::kRandom,
                core::MoveTie::kPreferEnterPath},
           Case{"election=First move=First", core::ElectionTie::kFirst,
                core::MoveTie::kFirst},
           Case{"election=First move=Random", core::ElectionTie::kFirst,
                core::MoveTie::kRandom},
       }) {
    core::SessionConfig config;
    config.election_tie = c.election;
    config.move_tie = c.move;
    const auto result = run_fig10(config);
    std::printf("%-28s %10s %8llu %8llu %10llu\n", c.name,
                result.complete ? "yes" : "NO",
                static_cast<unsigned long long>(result.hops),
                static_cast<unsigned long long>(result.elementary_moves),
                static_cast<unsigned long long>(result.messages_sent));
  }
}

void ablate_latency() {
  bench::print_header("A5: link latency model (fig10 completion time)");
  std::printf("%-24s %12s %12s %10s\n", "latency", "sim ticks", "messages",
              "dropped");
  for (const auto& model :
       {msg::LatencyModel::fixed(1), msg::LatencyModel::fixed(10),
        msg::LatencyModel::uniform(1, 20),
        msg::LatencyModel::exponential(5.0)}) {
    core::SessionConfig config;
    config.sim.latency = model;
    const auto result = run_fig10(config);
    std::printf("%-24s %12llu %12llu %10llu\n", model.describe().c_str(),
                static_cast<unsigned long long>(result.sim_ticks),
                static_cast<unsigned long long>(result.messages_sent),
                static_cast<unsigned long long>(result.messages_dropped));
  }
}

void ablate_trains() {
  bench::print_header(
      "A7: train rules (paper §IV simultaneous-motion family)");
  std::printf("%-12s %-22s %10s %8s %8s %10s\n", "scenario", "rules",
              "complete", "hops", "moves", "messages");
  for (const int32_t k : {8, 16, 24}) {
    const lat::Scenario scenario = lat::make_tower_scenario(k);
    for (const int trains : {0, 3, 4}) {
      core::SessionConfig config;
      std::string label = "slide+carry";
      if (trains > 0) {
        config.rules = motion::RuleLibrary::standard_with_trains(trains);
        label = "with trains<=" + std::to_string(trains);
      }
      const auto result =
          core::ReconfigurationSession::run_scenario(scenario, config);
      std::printf("%-12s %-22s %10s %8llu %8llu %10llu\n",
                  scenario.name.c_str(), label.c_str(),
                  result.complete ? "yes" : "NO",
                  static_cast<unsigned long long>(result.hops),
                  static_cast<unsigned long long>(result.elementary_moves),
                  static_cast<unsigned long long>(result.messages_sent));
    }
  }
}

void ablate_tabu() {
  bench::print_header("A6: tabu capacity for tier-2 detours (wide blob)");
  std::printf("%-10s %10s %8s %14s\n", "capacity", "complete", "hops",
              "tier-2 hops");
  for (const uint32_t capacity : {0u, 2u, 8u, 32u}) {
    core::SessionConfig config;
    config.tabu_capacity = capacity;
    config.max_iterations = 4000;
    const auto result =
        core::ReconfigurationSession::run_scenario(wide_blob(), config);
    std::printf("%-10u %10s %8llu %14llu\n", capacity,
                result.complete ? "yes" : "NO",
                static_cast<unsigned long long>(result.hops),
                static_cast<unsigned long long>(result.repositioning_hops));
  }
}

}  // namespace

int main() {
  ablate_repositioning();
  ablate_tie_policies();
  ablate_latency();
  ablate_trains();
  ablate_tabu();
  return 0;
}
