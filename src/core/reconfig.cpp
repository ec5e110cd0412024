#include "core/reconfig.hpp"

#include <chrono>
#include <sstream>

#include "lattice/region.hpp"
#include "util/assert.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace sb::core {

std::string SessionResult::summary() const {
  std::ostringstream os;
  os << "status: "
     << (complete ? "complete" : blocked ? "blocked" : "inconclusive")
     << " (" << to_string(stop_reason) << ")\n";
  os << fmt("blocks: {}  path cells: {}\n", block_count, path_cells);
  os << fmt("iterations: {}  elections: {}  hops: {} ({} repositioning)  "
            "elementary moves: {}\n",
            iterations, elections_completed, hops, repositioning_hops,
            elementary_moves);
  os << fmt("distance computations: {}\n", distance_computations);
  os << fmt("messages: sent={} delivered={} dropped={}\n", messages_sent,
            messages_delivered, messages_dropped);
  for (const auto& [kind, count] : messages_by_kind) {
    os << fmt("  {}: {}\n", kind, count);
  }
  os << fmt("connectivity: fast-path={} floods={} (fast rate {})\n",
            conn_fast_hits, conn_slow_floods, conn_fast_rate());
  os << fmt("sim time: {} ticks  events: {}  wall: {}s\n", sim_ticks,
            events_processed, wall_seconds);
  if (shards > 1) {
    os << fmt("shards: {} (events per shard:", shards);
    for (const uint64_t events : shard_events) os << fmt(" {}", events);
    os << ")\n";
  }
  return os.str();
}

ReconfigurationSession::ReconfigurationSession(const lat::Scenario& scenario,
                                               SessionConfig config)
    : scenario_(scenario), config_(config) {
  const auto issues = lat::validate(scenario_);
  SB_EXPECTS(issues.empty(), "invalid scenario '", scenario_.name,
             "': ", issues.empty() ? "" : issues.front());

  sim::World world(scenario_.width, scenario_.height,
                   config_.rules ? *config_.rules
                                 : motion::RuleLibrary::standard());
  for (const auto& [id, pos] : scenario_.blocks) {
    world.grid().place(id, pos);
  }
  simulator_ = std::make_unique<sim::Simulator>(std::move(world), config_.sim);

  PlannerConfig planner_config;
  planner_config.distance.input = scenario_.input;
  planner_config.distance.output = scenario_.output;
  planner_config.distance.path_shape = config_.path_shape;
  planner_config.tie = config_.move_tie;
  planner_config.allow_repositioning = config_.allow_repositioning;
  planner_ = std::make_unique<MotionPlanner>(&simulator_->world().rules(),
                                             planner_config);

  algorithm_.input = scenario_.input;
  algorithm_.output = scenario_.output;
  algorithm_.election_tie = config_.election_tie;
  algorithm_.paper_eq6_init = config_.paper_eq6_init;
  algorithm_.ack_timeout = config_.ack_timeout;
  algorithm_.tabu_capacity = config_.tabu_capacity;
  const auto n = static_cast<uint32_t>(scenario_.block_count());
  algorithm_.max_iterations =
      config_.max_iterations != 0 ? config_.max_iterations
                                  : 20 * n * n + 500;

  for (const auto& [id, pos] : scenario_.blocks) {
    const bool is_root = pos == scenario_.input;
    simulator_->add_module<SmartBlockCode>(id, is_root, planner_.get(),
                                           &algorithm_, &shared_);
  }
}

sim::Module& ReconfigurationSession::hot_join(lat::BlockId id, lat::Vec2 pos) {
  const lat::WorldView view = simulator_->world().view();
  SB_EXPECTS(view.in_bounds(pos) && !view.occupied(pos),
             "hot_join needs a free in-bounds cell, got ", pos);
  SB_EXPECTS(view.occupied_neighbor_count(pos) > 0,
             "hot_join at ", pos, " would land a detached block");
  SB_EXPECTS(!simulator_->cell_in_motion(pos), "hot_join at ", pos,
             " would collide with an in-flight motion");
  SB_EXPECTS(!view.contains(id), "hot_join id ", id, " already placed");
  simulator_->world().grid().place(id, pos);
  // Register before the neighbors hear of the block: a message they send it
  // must find its module, and so its shard.
  sim::Module& module = simulator_->add_module<SmartBlockCode>(
      id, /*is_root=*/false, planner_.get(), &algorithm_, &shared_);
  simulator_->notify_cells_changed({pos});
  simulator_->start_module(id);
  return module;
}

void ReconfigurationSession::start_if_needed() {
  if (started_) return;
  started_ = true;
  simulator_->start_all_modules();
}

sim::StopReason ReconfigurationSession::step_events(uint64_t max_events) {
  start_if_needed();
  return simulator_->run({max_events, sim::kTimeMax});
}

SessionResult ReconfigurationSession::run() {
  start_if_needed();

  const auto wall_start = std::chrono::steady_clock::now();
  const sim::StopReason stop =
      simulator_->run({config_.max_events, sim::kTimeMax});
  const auto wall_end = std::chrono::steady_clock::now();

  SessionResult result;
  result.stop_reason = stop;
  result.complete = shared_.metrics.complete;
  result.blocked = shared_.metrics.blocked;
  result.iterations = shared_.metrics.final_epoch != 0
                          ? shared_.metrics.final_epoch
                          : static_cast<uint32_t>(
                                shared_.metrics.elections_started);
  result.elections_completed = shared_.metrics.elections_completed;
  result.hops = shared_.metrics.hops;
  result.repositioning_hops = shared_.metrics.repositioning_hops;
  result.elementary_moves = simulator_->world().elementary_moves();
  result.distance_computations = shared_.metrics.distance_computations;
  result.election_restarts = shared_.metrics.election_restarts;

  const sim::SimStats& stats = simulator_->stats();
  result.messages_sent = stats.messages_sent();
  result.messages_delivered = stats.messages_delivered;
  result.messages_dropped = stats.messages_dropped;
  for (const auto& [tag, kind] : AlgoMessages::kinds) {
    if (const uint64_t sent = stats.messages_by_tag[tag]; sent != 0) {
      result.messages_by_kind.emplace(kind, sent);
    }
  }
  const lat::ConnectivityStats conn =
      simulator_->world().view().connectivity_stats();
  result.conn_fast_hits = conn.fast_path_hits;
  result.conn_slow_floods = conn.slow_path_floods;
  result.events_processed = stats.events_processed;
  result.shards = simulator_->shard_count();
  result.shard_events = simulator_->shard_event_counts();
  result.phases = simulator_->phase_breakdown();
  result.sim_ticks = simulator_->now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  result.block_count = scenario_.block_count();
  result.path_cells =
      lat::shortest_path_cells(scenario_.input, scenario_.output);
  result.path = lat::occupied_shortest_path(simulator_->world().grid(),
                                            scenario_.input,
                                            scenario_.output);
  if (result.complete && !result.path.has_value()) {
    result.premature_completion = true;
    log_warn(
        "a block reached O but the shortest path is not fully occupied "
        "(premature completion on an adversarial scenario)");
  }
  return result;
}

std::string move_trace_line(Epoch epoch, lat::BlockId mover,
                            const motion::RuleApplication& app) {
  return fmt("{} {} {}", epoch, mover, app.describe());
}

SessionResult ReconfigurationSession::run_scenario(
    const lat::Scenario& scenario, SessionConfig config) {
  ReconfigurationSession session(scenario, config);
  return session.run();
}

}  // namespace sb::core
