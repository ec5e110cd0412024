#include "sim/simulator.hpp"

#include <algorithm>
#include <set>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sb::sim {

std::string_view to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kQueueEmpty: return "queue-empty";
    case StopReason::kEventLimit: return "event-limit";
    case StopReason::kTimeLimit: return "time-limit";
    case StopReason::kHalted: return "halted";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Module services (need the full Simulator definition)
// ---------------------------------------------------------------------------

Simulator& Module::sim() const {
  SB_EXPECTS(host_ != nullptr, "module ", id_, " is not registered");
  return *host_;
}

lat::Vec2 Module::position() const {
  return sim().world().view().position_of(id_);
}

bool Module::alive() const {
  return sim().world().view().alive(id_);
}

void Module::send_envelope(lat::Direction side, const msg::Message& envelope,
                           std::string_view kind) {
  sim().send_envelope(*this, side, envelope, kind);
}

void Module::broadcast_envelope(const msg::Message& envelope,
                                std::string_view kind,
                                std::optional<lat::Direction> skip) {
  for (lat::Direction d : lat::all_directions()) {
    if (skip && *skip == d) continue;
    if (neighbors_.neighbor(d).valid()) {
      sim().send_envelope(*this, d, envelope, kind);
    }
  }
}

void Module::set_timer(Ticks delay, uint64_t tag) {
  sim().timer_for(*this, delay, tag);
}

void Module::start_motion(const motion::RuleApplication& app) {
  sim().start_motion_for(*this, app);
}

lat::Neighborhood Module::sense() const {
  return sim().world().sense(position());
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

Simulator::Simulator(World world, SimConfig config)
    : world_(std::move(world)),
      config_(config),
      rng_(config.seed) {
  if (config_.shards > 1) init_shards();
}

Rng& Simulator::active_rng(const Module& sender) {
  if (!sharded_) return rng_;
  ShardState* ctx = tls_exec_;
  if (ctx != nullptr) return ctx->rng;
  return shards_[shard_of(sender.id())]->rng;
}

Module& Simulator::add_module(std::unique_ptr<Module> module) {
  SB_EXPECTS(module != nullptr);
  const lat::BlockId id = module->id();
  const lat::WorldView view = world_.view();
  SB_EXPECTS(view.contains(id), "block ", id,
             " must be placed on the grid before registering its module");
  SB_EXPECTS(find_module(id) == nullptr, "module for ", id,
             " is already registered");
  module->host_ = this;
  // Initialize the neighbor table from the physical contacts.
  const lat::Vec2 pos = view.position_of(id);
  for (lat::Direction d : lat::all_directions()) {
    module->neighbors_.set_neighbor(d, view.at(pos + delta(d)));
  }
  if (id.value >= modules_.size()) {
    modules_.resize(static_cast<size_t>(id.value) + 1);
  }
  if (sharded_) {
    if (id.value >= block_shard_.size()) {
      block_shard_.resize(static_cast<size_t>(id.value) + 1);
    }
    block_shard_[id.value] = static_cast<uint32_t>(shard_map_.shard_of(pos));
  }
  auto& slot = modules_[id.value];
  slot = std::move(module);
  ++module_count_;
  world_.grid().mutable_state().set_tag(id, lat::ModuleTag::kAlive);
  return *slot;
}

void Simulator::kill_module(lat::BlockId id) {
  Module* module = find_module(id);
  SB_EXPECTS(module != nullptr, "cannot kill unknown block ", id);
  world_.grid().mutable_state().set_tag(id, lat::ModuleTag::kDead);
  log_debug("block {} killed at t={}", id.value, now_);
}

void Simulator::start_module(lat::BlockId id) {
  SB_EXPECTS(find_module(id) != nullptr, "cannot start unknown block ", id);
  SB_EXPECTS(tls_exec_ == nullptr,
             "start_module must run in a sequential context");
  schedule_record(EventRecord::start(now_, id));
}

void Simulator::schedule_record(EventRecord&& record) {
  if (!sharded_) {
    SB_EXPECTS(record.time >= now_, "cannot schedule into the past (t=",
               record.time, " < now=", now_, ")");
    queue_.push(std::move(record));
    return;
  }
  // Sharded routing: grid-mutating / external events go to the sequential
  // queue; module events go to the queue of the target block's shard
  // (shard_of). From inside a window, cross-shard deliveries go straight
  // into the destination shard's inbound channel slot for this producer —
  // single-writer, so no thread ever touches another shard's queue or
  // contends on a lock; the destination integrates the slot after the next
  // rendezvous.
  ShardState* ctx = tls_exec_;
  SB_EXPECTS(record.time >= (ctx != nullptr ? ctx->now : now_),
             "cannot schedule into the past (t=", record.time, ")");
  switch (record.kind) {
    case EventKind::kMotionComplete:
    case EventKind::kExternal:
      if (ctx != nullptr) {
        ctx->pending_global.push_back(std::move(record));
      } else {
        queue_.push(std::move(record));
      }
      return;
    case EventKind::kStart:
    case EventKind::kTimer: {
      const size_t dest = shard_of(record.a);
      // Starts are scheduled between windows; timers only ever target the
      // module that set them, which executes on its own shard.
      SB_ASSERT(ctx == nullptr || dest == ctx->index,
                "start/timer scheduled across shards for block ", record.a);
      shards_[dest]->queue.push(std::move(record));
      return;
    }
    case EventKind::kDelivery: {
      // A receiver without a module drops the message on delivery
      // (deliver()), so it stays with the sending shard.
      size_t dest = ctx != nullptr ? ctx->index : shard_of(record.a);
      if (find_module(record.b) != nullptr) dest = shard_of(record.b);
      if (ctx != nullptr && dest != ctx->index) {
        obs::TraceWriter& tracer = obs::TraceWriter::instance();
        if (tracer.enabled()) {
          tracer.instant("xshard_push", "sim",
                         {{"src", ctx->index}, {"dst", dest}});
        }
        shards_[dest]->inbound[ctx->index].push_back(std::move(record));
      } else {
        shards_[dest]->queue.push(std::move(record));
      }
      return;
    }
  }
  SB_UNREACHABLE();
}

void Simulator::schedule(SimTime when, std::unique_ptr<Event> event) {
  SB_EXPECTS(event != nullptr);
  schedule_record(EventRecord::wrap(when, std::move(event)));
}

void Simulator::start_all_modules() {
  for_each_module([this](Module& module) {
    schedule_record(EventRecord::start(now_, module.id()));
  });
}

void Simulator::dispatch(EventRecord& record) {
  switch (record.kind) {
    case EventKind::kStart: {
      Module* module = find_module(record.a);
      if (module != nullptr && module->alive()) module->on_start();
      return;
    }
    case EventKind::kTimer: {
      Module* module = find_module(record.a);
      if (module != nullptr && module->alive()) module->on_timer(record.tag());
      return;
    }
    case EventKind::kDelivery:
      deliver(record);
      return;
    case EventKind::kMotionComplete:
      complete_motion(record.a, record.app());
      if (mutation_observer_) mutation_observer_(*this);
      return;
    case EventKind::kExternal:
      record.external().execute(*this);
      if (mutation_observer_) mutation_observer_(*this);
      return;
  }
  SB_UNREACHABLE();
}

bool Simulator::step() {
  SB_EXPECTS(!sharded_, "step() is only supported in classic (shards=1) "
                        "mode; use run() on a sharded simulator");
  if (queue_.empty()) return false;
  EventRecord record = queue_.pop();
  SB_ASSERT(record.time >= now_, "event time ran backwards");
  now_ = record.time;
  ++stats_.events_processed;
  if (trace_events_) record_trace(0, record);
  dispatch(record);
  return true;
}

StopReason Simulator::run(RunLimits limits) {
  if (sharded_) return run_sharded(limits);
  uint64_t processed = 0;
  while (!halted_) {
    const EventRecord* next = queue_.peek();
    if (next == nullptr) return StopReason::kQueueEmpty;
    if (next->time > limits.until) return StopReason::kTimeLimit;
    if (processed >= limits.max_events) return StopReason::kEventLimit;
    step();
    ++processed;
  }
  return StopReason::kHalted;
}

void Simulator::send_envelope(Module& sender, lat::Direction side,
                              const msg::Message& envelope,
                              std::string_view kind) {
  SimStats& stats = active_stats();
  ++stats.messages_sent;
  ++stats.messages_by_kind[kind];

  const lat::BlockId receiver = sender.neighbors_.neighbor(side);
  if (!receiver.valid()) {
    ++stats.messages_dropped;
    return;
  }
  const Ticks latency = config_.latency.sample(active_rng(sender));
  schedule_record(
      EventRecord::delivery(now() + latency, sender.id(), receiver, envelope));
}

void Simulator::deliver(const EventRecord& record) {
  SimStats& stats = active_stats();
  Module* target = find_module(record.b);
  if (target == nullptr || !target->alive()) {
    ++stats.messages_dropped;
    return;
  }
  // The physical contact must still exist (messages in flight are lost when
  // a block departs). refresh_neighbors_around keeps every neighbour table
  // equal to the grid's contacts after each mutation, so the receiver's
  // table answers without reading either block's position.
  const auto from_side = target->neighbors_.side_of(record.a);
  if (!from_side) {
    ++stats.messages_dropped;
    return;
  }
  ++stats.messages_delivered;
  target->on_message(*from_side, record.message());
}

void Simulator::timer_for(Module& module, Ticks delay, uint64_t tag) {
  schedule_record(EventRecord::timer(now() + delay, module.id(), tag));
}

void Simulator::start_motion_for(Module& subject,
                                 const motion::RuleApplication& app) {
  SB_EXPECTS(app.subject_from() == world_.view().position_of(subject.id()),
             "block ", subject.id(), " is not the subject of ",
             app.describe());
  if (!world_.can_apply(app)) {
    // The world changed between the block's decision and this request — a
    // hot-joined block docked into a cell the move needs (unreachable
    // without external churn: the algorithm moves one block at a time).
    // The mover stays put; the module recovers at the protocol level.
    log_warn("block {}: motion {} no longer physically possible; rejected",
             subject.id(), app.describe());
    ++active_stats().motions_rejected;
    subject.on_motion_rejected();
    return;
  }
  ++active_stats().motions_started;
  const SimTime lands = now() + config_.motion_duration;
  // Sequential contexts register the flight here; requests made inside a
  // shard window buffer through pending_global and register at the barrier
  // flush, so the registry is never touched concurrently.
  if (tls_exec_ == nullptr) inflight_motions_.emplace_back(subject.id(), app);
  schedule_record(EventRecord::motion_complete(lands, subject.id(), app));
}

bool Simulator::cell_in_motion(lat::Vec2 pos) const {
  for (const auto& [subject, app] : inflight_motions_) {
    for (const auto& [from, to] : app.world_moves()) {
      if (from == pos || to == pos) return true;
    }
  }
  return false;
}

void Simulator::complete_motion(lat::BlockId subject,
                                const motion::RuleApplication& app) {
  for (auto it = inflight_motions_.begin(); it != inflight_motions_.end();
       ++it) {
    if (it->first == subject) {
      inflight_motions_.erase(it);
      break;
    }
  }
  // Physics may have changed since the request was validated; re-check.
  // External stimuli are required to respect cell_in_motion(), so this can
  // only fire on an engine bug, not on legal churn.
  SB_ASSERT(world_.can_apply(app),
            "motion became invalid while executing: ", app.describe(),
            " (concurrent motions are not supported)");
  const auto moves = app.world_moves();
  world_.apply(app);
  ++stats_.motions_completed;

  std::vector<lat::Vec2> touched;
  for (const auto& [from, to] : moves) {
    touched.push_back(from);
    touched.push_back(to);
  }
  refresh_neighbors_around(touched);

  Module* module = find_module(subject);
  if (module != nullptr && module->alive()) module->on_motion_complete();
}

void Simulator::refresh_neighbors_around(const std::vector<lat::Vec2>& cells) {
  // Collect every block adjacent to a touched cell (or on one), then diff
  // its stored neighbor table against the grid.
  const lat::WorldView view = world_.view();
  std::set<lat::BlockId> affected;
  for (const lat::Vec2 cell : cells) {
    if (view.occupied(cell)) affected.insert(view.at(cell));
    for (lat::Direction d : lat::all_directions()) {
      const lat::Vec2 q = cell + delta(d);
      if (view.occupied(q)) affected.insert(view.at(q));
    }
  }
  for (const lat::BlockId id : affected) {
    Module* module = find_module(id);
    if (module == nullptr) continue;
    const lat::Vec2 pos = view.position_of(id);
    for (lat::Direction d : lat::all_directions()) {
      const lat::BlockId current = view.at(pos + delta(d));
      if (module->neighbors_.neighbor(d) != current) {
        module->neighbors_.set_neighbor(d, current);
        if (module->alive()) module->on_neighbor_change(d, current);
      }
    }
  }
}

}  // namespace sb::sim
