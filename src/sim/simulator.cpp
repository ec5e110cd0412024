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

void Module::send_envelope(lat::Direction side, const msg::Message& envelope) {
  sim().send_envelope(*this, side, envelope);
}

void Module::broadcast_envelope(const msg::Message& envelope,
                                std::optional<lat::Direction> skip) {
  for (lat::Direction d : lat::all_directions()) {
    if (skip && *skip == d) continue;
    if (neighbors_.neighbor(d).valid()) {
      sim().send_envelope(*this, d, envelope);
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
  // The tag column is the module registry: a tag stamped before this
  // simulator owned the world would name a slot that holds nothing.
  const lat::WorldView view = world_.view();
  for (uint32_t value = 0; value < view.id_capacity(); ++value) {
    SB_EXPECTS(view.tag(lat::BlockId{value}) == lat::ModuleTag::kUnregistered,
               "block ", lat::BlockId{value},
               " arrives with a module tag but no program");
  }
  init_shards();
}

Simulator::~Simulator() {
  // The programs go before the members: the walk reads the world's tag
  // column, and the chunks they live in are freed with module_chunks_.
  for_each_module([](Module& module) { std::destroy_at(&module); });
}

Rng& Simulator::active_rng(const Module& sender) {
  ShardState* ctx = tls_exec_;
  if (ctx != nullptr) return ctx->rng;
  return shards_[shard_of(sender.id())]->rng;
}

std::byte* Simulator::claim_slot(lat::BlockId id) {
  SB_EXPECTS(tls_exec_ == nullptr,
             "add_module must run in a sequential context");
  const lat::WorldView view = world_.view();
  SB_EXPECTS(view.contains(id), "block ", id,
             " must be placed on the grid before registering its module");
  SB_EXPECTS(view.tag(id) == lat::ModuleTag::kUnregistered, "module for ",
             id, " is already registered");
  const size_t chunk = id.value / kModuleChunkIds;
  if (chunk >= module_chunks_.size()) module_chunks_.resize(chunk + 1);
  if (module_chunks_[chunk] == nullptr) {
    void* bytes = ::operator new[](size_t{kModuleChunkIds} * kModuleSlotBytes,
                                   std::align_val_t{kModuleSlotAlign});
    module_chunks_[chunk].reset(static_cast<std::byte*>(bytes));
  }
  return slot_of(id);
}

void Simulator::register_module(Module& module, const std::byte* slot) {
  const lat::BlockId id = module.id();
  // module_at() reads a slot as its Module: the base must start it.
  SB_ASSERT(static_cast<const void*>(&module) == slot && slot == slot_of(id),
            "module ", id, " is not at the start of its own slot");
  module.host_ = this;
  // Initialize the neighbor table from the physical contacts.
  const lat::WorldView view = world_.view();
  const lat::Vec2 pos = view.position_of(id);
  for (lat::Direction d : lat::all_directions()) {
    module.neighbors_.set_neighbor(d, view.at(pos + delta(d)));
  }
  if (id.value >= block_shard_.size()) {
    block_shard_.resize(static_cast<size_t>(id.value) + 1);
  }
  block_shard_[id.value] = static_cast<uint32_t>(shard_map_.shard_of(pos));
  ++module_count_;
  world_.grid().mutable_state().set_tag(id, lat::ModuleTag::kAlive);
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
  // Grid-mutating / external events go to the sequential queue; module
  // events go to the queue of the target block's shard (shard_of). From
  // inside a window, anything bound for another queue (a delivery to
  // another shard's block, a landing, an external event) goes into the
  // draining shard's own outbox, so no thread ever touches another queue
  // or contends on a lock; the next rendezvous routes it.
  ShardState* ctx = tls_exec_;
  SB_EXPECTS(record.time >= (ctx != nullptr ? ctx->now : now_),
             "cannot schedule into the past (t=", record.time, " < now=",
             now(), ")");
  switch (record.kind) {
    case EventKind::kMotionComplete:
    case EventKind::kExternal:
      if (ctx != nullptr) {
        // The window ends at the next grid mutation, this one included.
        // Above one shard a motion always lands at or past the horizon
        // already, since the lookahead is at most motion_duration.
        ctx->horizon = std::min(ctx->horizon, record.time);
        ctx->outbox.push_back(std::move(record));
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
      if (shards_.size() == 1) {
        // One shard holds every queue a delivery could go to; it reads
        // neither block's module nor shard.
        shards_.front()->queue.push(std::move(record));
        return;
      }
      // A receiver without a module drops the message on delivery
      // (deliver()), so it stays with the sending shard.
      size_t dest = ctx != nullptr ? ctx->index : shard_of(record.a);
      if (world_.view().tag(record.b) != lat::ModuleTag::kUnregistered) {
        dest = shard_of(record.b);
      }
      if (ctx != nullptr && dest != ctx->index) {
        obs::TraceWriter& tracer = obs::TraceWriter::instance();
        if (tracer.enabled()) {
          tracer.instant("xshard_push", "sim",
                         {{"src", ctx->index}, {"dst", dest}});
        }
        ctx->outbox.push_back(std::move(record));
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
  for_each_registered_id([this](lat::BlockId id) {
    schedule_record(EventRecord::start(now_, id));
  });
}

void Simulator::dispatch(EventRecord& record) {
  switch (record.kind) {
    case EventKind::kStart:
      if (Module* module = live_module(record.a)) module->on_start();
      return;
    case EventKind::kTimer:
      if (Module* module = live_module(record.a)) {
        module->on_timer(record.tag());
      }
      return;
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

void Simulator::send_envelope(Module& sender, lat::Direction side,
                              const msg::Message& envelope) {
  SimStats& stats = active_stats();
  ++stats.messages_by_tag[envelope.tag()];

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
  Module* target = live_module(record.b);
  if (target == nullptr) {
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
  // shard window ride its outbox and register when the rendezvous routes
  // them, so the registry is never touched concurrently.
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

  if (Module* module = live_module(subject)) module->on_motion_complete();
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
