#include "check/oracle.hpp"

#include <unordered_set>

#include "lattice/world_view.hpp"
#include "util/fmt.hpp"

namespace sb::check {

InvariantOracle::InvariantOracle(OracleOptions options)
    : options_(options), rng_(options.seed) {
  SB_EXPECTS(options_.check_every > 0, "check_every must be >= 1");
}

void InvariantOracle::attach(
    core::ReconfigurationSession& session,
    std::function<void(core::Epoch, lat::BlockId,
                       const motion::RuleApplication&)>
        chain) {
  SB_EXPECTS(!attached_, "oracle already attached to a session");
  attached_ = true;
  expected_blocks_ = session.simulator().world().view().block_count();
  session.simulator().set_mutation_observer(
      [this](sim::Simulator& sim) { on_mutation(sim); });
  session.set_move_listener(
      [this, chain = std::move(chain)](core::Epoch epoch, lat::BlockId mover,
                                       const motion::RuleApplication& app) {
        on_move(epoch, mover);
        if (chain) chain(epoch, mover, app);
      });
}

void InvariantOracle::on_mutation(sim::Simulator& sim) {
  ++mutations_seen_;
  if ((mutations_seen_ - 1) % options_.check_every != 0) return;
  check_now(sim);
}

void InvariantOracle::check_now(sim::Simulator& sim) {
  ++checks_run_;
  check_occupancy(sim);
  check_connectivity(sim);
  check_conservation(sim);
  check_columns(sim);
  check_contacts(sim);
}

void InvariantOracle::on_move(core::Epoch epoch, lat::BlockId mover) {
  if (epoch < last_epoch_ && violations_.size() < options_.max_violations) {
    violations_.push_back(fmt(
        "epoch regression: move by block {} carries epoch {} after epoch {}",
        mover.value, epoch, last_epoch_));
  }
  if (epoch > last_epoch_) last_epoch_ = epoch;
}

void InvariantOracle::record(sim::Simulator& sim, std::string what) {
  if (violations_.size() >= options_.max_violations) {
    ++suppressed_;
    return;
  }
  violations_.push_back(fmt("t={}: {}", sim.now(), what));
}

void InvariantOracle::check_occupancy(sim::Simulator& sim) {
  const lat::WorldView view = sim.world().view();
  std::unordered_set<uint32_t> seen;
  std::vector<size_t> rows(static_cast<size_t>(view.height()), 0);
  std::vector<size_t> cols(static_cast<size_t>(view.width()), 0);
  size_t counted = 0;
  for (int32_t y = 0; y < view.height(); ++y) {
    for (int32_t x = 0; x < view.width(); ++x) {
      const lat::Vec2 p{x, y};
      const lat::BlockId id = view.at(p);
      if (!id.valid()) continue;
      ++counted;
      ++rows[static_cast<size_t>(y)];
      ++cols[static_cast<size_t>(x)];
      if (!seen.insert(id.value).second) {
        record(sim, fmt("block {} occupies more than one cell (second at {})",
                        id.value, p));
        continue;
      }
      if (!view.contains(id)) {
        record(sim,
               fmt("cell {} holds block {} but the id index disowns it", p,
                   id.value));
      } else if (view.position_of(id) != p) {
        record(sim, fmt("block {} indexed at {} but cell {} holds it",
                        id.value, view.position_of(id), p));
      }
    }
  }
  if (counted != view.block_count()) {
    record(sim, fmt("block_count says {} but {} cells are occupied",
                    view.block_count(), counted));
  }
  for (int32_t y = 0; y < view.height(); ++y) {
    if (view.blocks_in_row(y) != rows[static_cast<size_t>(y)]) {
      record(sim, fmt("row {} count cache says {} but {} cells are occupied",
                      y, view.blocks_in_row(y),
                      rows[static_cast<size_t>(y)]));
    }
  }
  for (int32_t x = 0; x < view.width(); ++x) {
    if (view.blocks_in_column(x) != cols[static_cast<size_t>(x)]) {
      record(sim,
             fmt("column {} count cache says {} but {} cells are occupied", x,
                 view.blocks_in_column(x), cols[static_cast<size_t>(x)]));
    }
  }
}

void InvariantOracle::check_connectivity(sim::Simulator& sim) {
  const lat::WorldView view = sim.world().view();
  const bool connected = view.connected_ground_truth();
  const lat::ConnectivityHint hint = view.connectivity_hint();
  if (!connected) {
    record(sim, fmt("surface disconnected: {} blocks no longer form one "
                    "component (Remark 1 violated)",
                    view.block_count()));
    if (hint == lat::ConnectivityHint::kConnected) {
      record(sim,
             "cached connectivity verdict says connected but the "
             "ground-truth flood says disconnected");
    }
    return;
  }
  if (hint == lat::ConnectivityHint::kUnknown) return;
  if (!rng_.next_bool(options_.hint_probe_rate)) return;
  ++hint_probes_;
  if (hint == lat::ConnectivityHint::kDisconnected) {
    record(sim,
           "cached connectivity verdict says disconnected but the "
           "ground-truth flood says connected");
  }
}

void InvariantOracle::check_conservation(sim::Simulator& sim) {
  const lat::WorldView view = sim.world().view();
  if (view.block_count() != expected_blocks_) {
    record(sim, fmt("module conservation broken: {} blocks on the surface, "
                    "expected {} (initial + hot-joins; deaths keep their "
                    "block in place)",
                    view.block_count(), expected_blocks_));
    // Resync so one lost block doesn't re-report on every later mutation.
    expected_blocks_ = view.block_count();
  }
  if (sim.module_count() > view.block_count()) {
    record(sim, fmt("{} modules registered for {} blocks",
                    sim.module_count(), view.block_count()));
  }
}

void InvariantOracle::check_columns(sim::Simulator& sim) {
  const lat::WorldView view = sim.world().view();
  // Occupancy image vs cell array: the SoA byte image is a second store of
  // the same truth, kept in lock-step by Grid's mutations.
  for (int32_t y = 0; y < view.height(); ++y) {
    const uint8_t* row = view.occupancy_row(y);
    for (int32_t x = 0; x < view.width(); ++x) {
      const bool image = row[x] != 0;
      const bool cell = view.at({x, y}).valid();
      if (image != cell) {
        record(sim, fmt("occupancy image disagrees with the cell array at "
                        "({},{}): image says {}, cells say {}",
                        x, y, image ? "occupied" : "empty",
                        cell ? "occupied" : "empty"));
      }
    }
  }
  // Slot integrity: the tag column is the module registry (registration
  // stamps kAlive, kill_module kDead, nothing else writes it), and each
  // program sits in the slot its id computes, so every id the column
  // registers must find a program of that id, and the registered count
  // must be the simulator's.
  size_t registered = 0;
  for (uint32_t value = 0; value < view.id_capacity(); ++value) {
    const lat::BlockId id{value};
    if (view.tag(id) == lat::ModuleTag::kUnregistered) continue;
    ++registered;
    const sim::Module* module = sim.find_module(id);
    if (module == nullptr) {
      record(sim, fmt("block {} is registered in the tag column but its "
                      "slot holds no program",
                      value));
    } else if (module->id() != id) {
      record(sim, fmt("block {}'s slot holds the program of block {}", value,
                      module->id().value));
    }
  }
  if (registered != sim.module_count()) {
    record(sim, fmt("the tag column registers {} modules but the simulator "
                    "counts {}",
                    registered, sim.module_count()));
  }
}

void InvariantOracle::check_contacts(sim::Simulator& sim) {
  const lat::WorldView view = sim.world().view();
  sim.for_each_module([&](sim::Module& module) {
    if (!view.contains(module.id())) return;  // conservation reports it
    const lat::Vec2 pos = view.position_of(module.id());
    for (const lat::Direction d : lat::all_directions()) {
      const lat::BlockId listed = module.neighbor_table().neighbor(d);
      const lat::BlockId actual = view.at(pos + delta(d));
      if (listed != actual) {
        record(sim, fmt("block {} at {} lists {} on its {} side but the grid "
                        "holds {} there",
                        module.id().value, pos, listed, to_string(d),
                        actual));
      }
    }
  });
}

}  // namespace sb::check
