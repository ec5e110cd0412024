#include <algorithm>
#include <cstdlib>
#include <thread>

#include "lattice/connectivity.hpp"
#include "sim/simulator.hpp"
#include "util/fmt.hpp"

// The channel-driven sharded schedule (SimConfig::shards > 1).
//
// The surface is split by a ShardMap into column stripes cut at equal block
// count; each shard owns the blocks that stood in its stripe when their
// modules registered, and runs their events wherever they move. A
// resident ShardEngine worker set cycles rounds of
//
//   fold -> integrate -> decide -> drain
//
// over a sense-reversing barrier:
//
//   Drain (parallel) — every shard drains its queue up to a horizon
//   `window_end`, in local (time, seq) order, on its owning worker. The
//   grid is frozen (no event in a shard queue mutates it) and its
//   connectivity verdict was settled before the window opened, so handlers
//   only read it. Writes stay inside the shard (its modules, queue, RNG,
//   counters) apart from relaxed-atomic counters and cross-shard
//   deliveries, which the producer pushes straight into the destination
//   shard's inbound channel slot. One slot per (producer, consumer) pair
//   makes every slot single-writer, so no locks are needed; the rendezvous
//   barrier is the happens-before edge to the consumer. The horizon is
//   bounded by the lookahead — the minimum link latency — so any message
//   sent inside the window can only be delivered in a later one, and by the
//   time of the next grid-mutating event. When LatencyModel::min_ticks > 1
//   the window spans that many ticks, amortizing one rendezvous over many
//   events.
//
//   Fold (serial, in the barrier) — window counters fold into the run
//   totals and pending grid-mutating events merge into the sequential
//   queue, in fixed shard order.
//
//   Integrate (parallel) — each shard's owner routes its inbound channel
//   slots into the shard queue, in producer-shard order.
//
//   Decide (serial, in the barrier) — grid-mutating or external events due
//   before the earliest shard event execute one by one on the deciding
//   thread; their handlers see a quiescent world and may touch any shard.
//   Then a connectivity verdict the last mutation left unknown is settled
//   by one flood and the next horizon is chosen, or the round loop stops.
//
// Determinism: shard queues pop in (time, seq); seqs are assigned by
// deterministic per-queue push order; channel slots integrate in fixed
// producer order on the consumer's worker; each shard draws latencies from
// its own RNG stream. Worker assignment never reorders anything, so event
// traces are byte-identical for every shard_threads value.

namespace sb::sim {

namespace {
/// RNG fork streams for shards live far above the block-id fork space used
/// by module programs (ids are < 2^26), so the streams never collide.
constexpr uint64_t kShardRngStreamBase = uint64_t{1} << 32;
}  // namespace

void Simulator::init_shards() {
  const lat::WorldView view = world_.view();
  std::vector<uint64_t> column_blocks(static_cast<size_t>(view.width()));
  for (int32_t x = 0; x < view.width(); ++x) {
    column_blocks[static_cast<size_t>(x)] = view.blocks_in_column(x);
  }
  shard_map_ = lat::ShardMap(column_blocks, config_.shards);
  if (shard_map_.count() <= 1) return;  // one-column surface: stay classic
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
  // A worker per stripe that holds blocks: a stripe with none has no event
  // to drain, and its worker would only wait at every rendezvous. Workers
  // still drain stripes by stride, so a block hot-joined into an empty
  // stripe runs on whichever worker owns it. A connected start
  // configuration fills an interval of columns and stripes are column
  // intervals, so the busy stripes are consecutive and the stride gives
  // each its own worker; a disconnected one may pair two busy stripes on a
  // worker, which costs time but never changes a trace.
  std::vector<bool> stripe_has_blocks(shard_map_.count(), false);
  for (int32_t x = 0; x < view.width(); ++x) {
    if (column_blocks[static_cast<size_t>(x)] > 0) {
      stripe_has_blocks[shard_map_.shard_of({x, 0})] = true;
    }
  }
  const auto busy_stripes = static_cast<size_t>(
      std::count(stripe_has_blocks.begin(), stripe_has_blocks.end(), true));
  size_t threads = config_.shard_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, std::max<size_t>(busy_stripes, 1));
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
          record.kind_name(), record.a.value, record.b.value, record.tag()));
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
  // Fold the engine's phase times while its workers are parked.
  phases_.merge(engine_->phase_totals());
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
  for (const auto& shard : shards_) {
    run_processed_ += shard->window_events;
    shard->total_events += shard->window_events;
    shard->stats.events_processed += shard->window_events;
    shard->window_events = 0;
    if (shard->now > now_) now_ = shard->now;
    if (shard->halt_requested) {
      shard->halt_requested = false;
      halted_ = true;
    }
    for (auto& record : shard->pending_global) {
      // Motions requested inside the window become visible here: register
      // the flight so sequential churn can respect cell_in_motion().
      if (record.kind == EventKind::kMotionComplete) {
        inflight_motions_.emplace_back(record.a, record.app());
      }
      queue_.push(std::move(record));
    }
    shard->pending_global.clear();
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
      ++stats_.events_processed;
      if (trace_events_) record_trace(sequential_stream, record);
      ++run_processed_;
      dispatch(record);
      continue;
    }

    // Windows only read the grid: a verdict the last mutation left unknown
    // is settled here, once, so no probe inside the window floods the
    // current grid or stores a verdict.
    const lat::Grid& grid = world_.grid();
    if (grid.connectivity_hint() == lat::ConnectivityHint::kUnknown) {
      (void)lat::is_connected(grid);
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
  const lat::Grid& grid = world_.grid();
  SB_ASSERT(grid.block_count() <= 1 ||
                grid.connectivity_hint() != lat::ConnectivityHint::kUnknown,
            "shard window opened on an unsettled connectivity verdict");
  tls_exec_ = &shard;
  EventQueue& queue = shard.queue;
  while (const EventRecord* head = queue.peek()) {
    if (head->time >= window_end) break;
    EventRecord record = queue.pop();
    SB_ASSERT(record.time >= shard.now, "shard time ran backwards");
    shard.now = record.time;
    ++shard.window_events;
    if (trace_events_) record_trace(shard.index, record);
    dispatch(record);
  }
  tls_exec_ = nullptr;
}

void Simulator::merge_shard_stats() {
  for (const auto& shard : shards_) {
    stats_.accumulate(shard->stats);
    shard->stats = SimStats{};
  }
}

}  // namespace sb::sim
