// General-purpose scenario runner: loads a .surf scenario file (and
// optionally a capability XML), runs the distributed reconfiguration, and
// reports. This is the shape of a deployment driver: everything the run
// needs comes from data files.
//
//   $ ./run_scenario data/scenarios/fig10.surf
//   $ ./run_scenario data/scenarios/tower16.surf --latency exponential --seed 7
//   $ ./run_scenario data/scenarios/tower16.surf --animate --rules "$XML"
//
// where XML names a capability file, e.g.
// data/rules/standard_capabilities.xml.

#include <cstdio>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "motion/rule_xml.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "viz/ascii.hpp"

int main(int argc, char** argv) {
  sb::CliParser cli("run a scenario file through the distributed algorithm");
  cli.add_string("rules", "", "capability XML (default: builtin library)");
  cli.add_string("latency", "fixed",
                 "link latency model: fixed | uniform | exponential");
  cli.add_int("seed", 1, "simulation seed");
  cli.add_bool("animate", false, "print the surface after every hop");
  cli.add_bool("trains", false, "use the train-extended builtin library");
  cli.add_bool("canonical-path", false,
               "freeze the canonical monotone path (diagonal I/O extension)");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positionals().size() != 1) {
    std::fprintf(stderr, "usage: run_scenario <scenario.surf> [flags]\n");
    return 1;
  }

  sb::lat::Scenario scenario;
  try {
    scenario = sb::lat::load_scenario(cli.positionals()[0]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot load scenario: %s\n", error.what());
    return 1;
  }
  const auto issues = sb::lat::validate(scenario);
  if (!issues.empty()) {
    std::fprintf(stderr, "scenario violates the paper's assumptions: %s\n",
                 sb::join(issues, "; ").c_str());
    return 1;
  }

  sb::core::SessionConfig config;
  config.sim.seed = static_cast<uint64_t>(cli.get_int("seed"));
  const std::string latency = cli.get_string("latency");
  if (latency == "uniform") {
    config.sim.latency = sb::msg::LatencyModel::uniform(1, 10);
  } else if (latency == "exponential") {
    config.sim.latency = sb::msg::LatencyModel::exponential(4.0);
  } else if (latency != "fixed") {
    std::fprintf(stderr, "unknown latency model '%s'\n", latency.c_str());
    return 1;
  }
  if (!cli.get_string("rules").empty()) {
    try {
      config.rules =
          sb::motion::load_capabilities_file(cli.get_string("rules"));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cannot load capabilities: %s\n", error.what());
      return 1;
    }
  } else if (cli.get_bool("trains")) {
    config.rules = sb::motion::RuleLibrary::standard_with_trains(4);
  }
  if (cli.get_bool("canonical-path")) {
    config.path_shape = sb::core::PathShape::kCanonicalMonotone;
  }

  sb::core::ReconfigurationSession session(scenario, config);
  const sb::lat::Grid& grid = session.simulator().world().grid();
  if (cli.get_bool("animate")) {
    session.set_move_listener([&](sb::core::Epoch epoch, sb::lat::BlockId id,
                                  const sb::motion::RuleApplication& app) {
      std::printf("step %u: #%u %s\n%s", epoch, id.value,
                  app.describe().c_str(),
                  sb::viz::render_ascii(sb::lat::WorldView(grid), scenario.input,
                                        scenario.output)
                      .c_str());
    });
  }

  std::printf("running '%s' (%zu blocks, %d-cell path)...\n",
              scenario.name.c_str(), scenario.block_count(),
              sb::lat::shortest_path_cells(scenario.input, scenario.output));
  const sb::core::SessionResult result = session.run();
  std::printf("%s", result.summary().c_str());
  if (!cli.get_bool("animate")) {
    std::printf("%s", sb::viz::render_ascii(sb::lat::WorldView(grid), scenario.input,
                                            scenario.output)
                          .c_str());
  }
  return result.complete ? 0 : 2;
}
