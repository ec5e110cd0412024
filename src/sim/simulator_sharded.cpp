#include <algorithm>
#include <cstdlib>
#include <thread>

#include "sim/simulator.hpp"
#include "util/fmt.hpp"

// The channel-driven sharded schedule (SimConfig::shards > 1).
//
// The surface is split by a ShardMap (column stripes by default; row
// stripes, 2-D tiles, and load-adaptive columns are selectable); each shard
// owns the events of the blocks inside its region. A resident ShardEngine
// worker set cycles rounds of
//
//   fold -> integrate -> decide -> drain
//
// over a sense-reversing barrier:
//
//   Drain (parallel) — every shard drains its queue up to a horizon
//   `window_end`, in local (time, seq) order, on its owning worker. The
//   grid is frozen (no event in a shard queue mutates it), so handlers may
//   read it freely; writes stay inside the shard (its modules, queue, RNG,
//   counters, connectivity scratch) — except cross-shard deliveries, which
//   the producer pushes straight into the destination shard's inbound
//   channel slot. One slot per (producer, consumer) pair makes every slot
//   single-writer, so no locks are needed; the rendezvous barrier is the
//   happens-before edge to the consumer. The horizon is bounded by the
//   lookahead — the minimum link latency — so any message sent inside the
//   window can only be delivered in a later one, and by the time of the
//   next grid-mutating event. When LatencyModel::min_ticks > 1 the window
//   spans that many ticks, amortizing one rendezvous over many events.
//
//   Fold (serial, in the barrier) — window counters fold into the run
//   totals, pending grid-mutating events merge into the sequential queue,
//   and shard flood verdicts publish to the grid cache, in fixed shard
//   order.
//
//   Integrate (parallel) — each shard's owner routes its inbound channel
//   slots into the shard queue, in producer-shard order.
//
//   Decide (serial, in the barrier) — grid-mutating or external events due
//   before the earliest shard event execute one by one on the deciding
//   thread; their handlers see a quiescent world and may touch any shard.
//   Then the next horizon is chosen, or the round loop stops.
//
// Determinism: shard queues pop in (time, seq); seqs are assigned by
// deterministic per-queue push order; channel slots integrate in fixed
// producer order on the consumer's worker; each shard draws latencies from
// its own RNG stream. Worker assignment never reorders anything, so event
// traces are byte-identical for every shard_threads value — and identical
// to the former coordinator/outbox engine's, which routed the same records
// into the same queues in the same order.

namespace sb::sim {

namespace {
/// RNG fork streams for shards live far above the block-id fork space used
/// by module programs (ids are < 2^26), so the streams never collide.
constexpr uint64_t kShardRngStreamBase = uint64_t{1} << 32;

lat::ShardMap make_shard_map(const lat::Grid& grid, const SimConfig& config) {
  switch (config.shard_map) {
    case lat::ShardMapKind::kRows:
      return lat::ShardMap::rows(grid.width(), grid.height(), config.shards);
    case lat::ShardMapKind::kTiles:
      return lat::ShardMap::tiles(grid.width(), grid.height(), config.shards);
    case lat::ShardMapKind::kColumns: break;
  }
  lat::ShardMap uniform(grid.width(), config.shards);
  // Load hints from a previous run re-stripe the column boundaries; stale
  // hints (wrong shard count for this surface) are ignored rather than
  // trusted.
  if (!config.shard_load_hints.empty() &&
      config.shard_load_hints.size() == uniform.count()) {
    return lat::ShardMap::restriped(uniform, config.shard_load_hints,
                                    uniform.count());
  }
  return uniform;
}
}  // namespace

void Simulator::init_shards() {
  shard_map_ = make_shard_map(world_.grid(), config_);
  if (shard_map_.count() <= 1) return;  // one-cell extent: stay classic
  sharded_ = true;
  // The lookahead is the guaranteed delay of *any* cross-window effect: a
  // message needs at least the minimum link latency, and a motion —
  // the grid mutations the windows must never straddle — needs
  // motion_duration. Capping at the smaller of the two keeps every
  // mutation scheduled inside a window strictly beyond its horizon.
  SB_EXPECTS(config_.motion_duration >= 1,
             "sharded execution needs motion_duration >= 1 tick (got ",
             config_.motion_duration, ")");
  lookahead_ = std::max<Ticks>(
      1, std::min<Ticks>(config_.latency.min_ticks(),
                         config_.motion_duration));
  shards_.reserve(shard_map_.count());
  for (size_t i = 0; i < shard_map_.count(); ++i) {
    auto shard = std::make_unique<ShardState>();
    shard->index = i;
    shard->rng = rng_.fork(kShardRngStreamBase + i);
    shard->inbound.resize(shard_map_.count());
    shards_.push_back(std::move(shard));
  }
  size_t threads = config_.shard_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, shards_.size());
  engine_ = std::make_unique<ShardEngine>(threads, shards_.size());

  // Deliberate-bug injection for the fuzzer self-test (simulator.hpp).
  if (const char* fault = std::getenv("SB_SIM_FAULT_DROP_FLUSH")) {
    fault_drop_flush_ = std::strtoll(fault, nullptr, 10);
  }
}

std::vector<uint64_t> Simulator::shard_event_counts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) counts.push_back(shard->total_events);
  return counts;
}

void Simulator::enable_event_trace() {
  trace_events_ = true;
  trace_streams_.assign(sharded_ ? shards_.size() + 1 : 1, {});
}

void Simulator::record_trace(size_t stream, const EventRecord& record) {
  trace_streams_[stream].push_back(
      fmt("t={} seq={} {} a={} b={} tag={}", record.time, record.seq,
          record.kind_name(), record.a.value, record.b.value, record.tag));
}

StopReason Simulator::run_sharded(RunLimits limits) {
  run_limits_ = limits;
  run_processed_ = 0;
  run_reason_ = StopReason::kQueueEmpty;
  window_pending_fold_ = false;
  ShardEngine::Hooks hooks;
  hooks.fold = [this] { sharded_fold(); };
  hooks.integrate = [this](size_t index) { sharded_integrate(index); };
  hooks.decide = [this](SimTime* window_end) {
    return sharded_decide(window_end);
  };
  hooks.drain = [this](size_t index, SimTime window_end) {
    drain_shard_window(*shards_[index], window_end);
  };
  engine_->run(hooks);
  merge_shard_stats();
  // Fold the engine's observability state while its workers are parked.
  phases_.merge(engine_->phase_totals());
  metrics_.merge(engine_->merged_metrics());
  engine_->reset_observability();
  return run_reason_;
}

void Simulator::sharded_fold() {
  // Injected bug (SB_SIM_FAULT_DROP_FLUSH, see simulator.hpp): make the
  // upcoming integrate phase drop this window's cross-shard deliveries on
  // the floor. The bootstrap fold of a run() has no window behind it and
  // must not advance the window numbering.
  if (window_pending_fold_) {
    window_pending_fold_ = false;
    drop_integration_ = flush_count_++ == fault_drop_flush_;
  } else {
    drop_integration_ = false;
  }
  const lat::Grid& grid = world_.grid();
  for (const auto& shard : shards_) {
    run_processed_ += shard->window_events;
    shard->window_events = 0;
    if (shard->last_time > now_) now_ = shard->last_time;
    if (shard->halt_requested) {
      shard->halt_requested = false;
      halted_ = true;
    }
    for (auto& record : shard->pending_global) {
      // Motions requested inside the window become visible here: register
      // the flight (and its pending-move column bit) so sequential churn
      // can respect cell_in_motion().
      if (record.kind == EventKind::kMotionComplete) {
        inflight_motions_.emplace_back(record.a, record.app());
        world_.grid().mutable_state().set_move_pending(record.a, true);
      }
      queue_.push(std::move(record));
    }
    shard->pending_global.clear();
    // Publish a window flood's verdict: it was computed against the current
    // (un-mutated) grid, so the grid cache and the other shards can reuse
    // it. Every shard computes the same verdict for the same version.
    if (grid.own_connectivity_hint() == lat::ConnectivityHint::kUnknown &&
        shard->conn_view.version == grid.version() &&
        shard->conn_view.hint != lat::ConnectivityHint::kUnknown) {
      grid.set_own_connectivity_hint(shard->conn_view.hint);
    }
  }
}

void Simulator::sharded_integrate(size_t index) {
  ShardState& shard = *shards_[index];
  // Producer order 0..N-1 matches the order the former coordinator routed
  // outboxes in, so destination seqs — and therefore traces — are
  // unchanged. Each slot was filled by exactly one producer during the
  // drain; the rendezvous barrier ordered those writes before this read.
  for (auto& slot : shard.inbound) {
    if (!drop_integration_) {
      for (auto& record : slot) shard.queue.push(std::move(record));
    }
    slot.clear();
  }
}

bool Simulator::sharded_decide(SimTime* window_end) {
  const size_t sequential_stream = shards_.size();
  for (;;) {
    if (halted_) {
      run_reason_ = StopReason::kHalted;
      return false;
    }
    if (run_processed_ >= run_limits_.max_events) {
      run_reason_ = StopReason::kEventLimit;
      return false;
    }

    SimTime t_shard = kTimeMax;
    for (const auto& shard : shards_) {
      if (const EventRecord* head = shard->queue.peek()) {
        t_shard = std::min(t_shard, head->time);
      }
    }
    const EventRecord* global_head = queue_.peek();
    const SimTime t_global =
        global_head != nullptr ? global_head->time : kTimeMax;
    const SimTime t_min = std::min(t_shard, t_global);
    if (t_min == kTimeMax) {
      run_reason_ = StopReason::kQueueEmpty;
      return false;
    }
    if (t_min > run_limits_.until) {
      run_reason_ = StopReason::kTimeLimit;
      return false;
    }

    if (t_global <= t_shard) {
      // Sequential step: the next grid mutation (or external event) is due
      // before any shard event. At equal timestamps mutations go first so
      // same-tick module events observe the post-move surface.
      EventRecord record = queue_.pop();
      now_ = record.time;
      count_event(record);
      if (trace_events_) record_trace(sequential_stream, record);
      ++run_processed_;
      dispatch(record);
      continue;
    }

    // Parallel window [t_shard, window_end): bounded by the lookahead, the
    // next grid mutation, and the time limit.
    SimTime end = t_shard + lookahead_;
    if (t_global < end) end = t_global;
    if (run_limits_.until != kTimeMax && run_limits_.until + 1 < end) {
      end = run_limits_.until + 1;
    }
    *window_end = end;
    window_pending_fold_ = true;
    return true;
  }
}

void Simulator::drain_shard_window(ShardState& shard, SimTime window_end) {
  SB_ASSERT(tls_exec_ == nullptr, "nested shard window drains");
  tls_exec_ = &shard;
  // The shard probes connectivity through its own scratch view while the
  // grid is frozen; seed it from the grid's verdict for the current
  // mutation generation so at most one flood runs per shard per grid
  // change.
  const lat::Grid& grid = world_.grid();
  if (shard.conn_view.version != grid.version()) {
    shard.conn_view.version = grid.version();
    shard.conn_view.hint = grid.own_connectivity_hint();
  }
  lat::Grid::install_connectivity_view(&shard.conn_view);

  EventQueue& queue = shard.queue;
  const bool detailed = config_.detailed_stats;
  while (const EventRecord* head = queue.peek()) {
    if (head->time >= window_end) break;
    EventRecord record = queue.pop();
    SB_ASSERT(record.time >= shard.now, "shard time ran backwards");
    shard.now = record.time;
    shard.last_time = record.time;
    ++shard.window_events;
    ++shard.total_events;
    ++shard.stats.events_processed;
    if (detailed) ++shard.stats.events_by_kind[record.kind_name()];
    if (trace_events_) record_trace(shard.index, record);
    dispatch(record);
  }

  lat::Grid::install_connectivity_view(nullptr);
  tls_exec_ = nullptr;
}

void Simulator::rehome_block_events(lat::BlockId id, size_t from_shard,
                                    size_t to_shard) {
  SB_ASSERT(id.valid());
  std::vector<EventRecord> extracted;
  shards_[from_shard]->queue.extract_for(id, extracted);
  // Re-pushing in (time, seq) order assigns fresh destination seqs while
  // preserving the events' relative order.
  for (EventRecord& record : extracted) {
    shards_[to_shard]->queue.push(std::move(record));
  }
}

void Simulator::merge_shard_stats() {
  lat::ConnectivityStats& conn = world_.grid().own_connectivity_stats();
  for (const auto& shard : shards_) {
    stats_.accumulate(shard->stats);
    shard->stats = SimStats{};
    conn += shard->conn_view.stats;
    shard->conn_view.stats = lat::ConnectivityStats{};
  }
}

}  // namespace sb::sim
