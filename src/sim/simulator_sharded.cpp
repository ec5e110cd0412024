#include <algorithm>
#include <cstdlib>
#include <thread>

#include "lattice/connectivity.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/fmt.hpp"

// The windowed engine: the simulator's one event loop, at any shard count.
//
// The surface is split by a ShardMap into column stripes cut at equal block
// count (SimConfig::shards of them, clamped to the width); each shard owns
// the blocks that stood in its stripe when their modules registered, and
// runs their events wherever they move. Workers (run_rounds,
// sim/shard.hpp) cycle rounds of one rendezvous and one drain:
//
//   rendezvous[fold -> route -> decide] -> drain
//
//   Drain (parallel) — every shard drains its queue up to a horizon
//   `window_end`, in local (time, seq) order, on its owning worker. The
//   grid is frozen (no event in a shard queue mutates it) and its
//   connectivity verdict was settled before the window opened, so handlers
//   only read it. Writes stay inside the shard (its modules, queue, RNG,
//   counters, outbox, trace lines) apart from relaxed-atomic counters: a
//   delivery to another shard's block and a motion's landing go into the
//   draining shard's own outbox, so no thread ever writes another shard's
//   state or the sequential queue and no locks are needed. The
//   horizon is bounded by the lookahead — the minimum link latency — so
//   any message sent inside the window can only be delivered in a later
//   one, and by the time of the next grid-mutating event. When
//   LatencyModel::min_ticks > 1 the window spans that many ticks,
//   amortizing one rendezvous over many events.
//
//   One shard needs no lookahead: no other shard can receive its messages
//   or run ahead of its clock. Its window ends at the next grid mutation,
//   including one its own drain schedules (a rule that never fires above
//   one shard, where the lookahead is at most motion_duration); at the
//   time limit; exactly at the run's event budget; and right after the
//   event that halts the run.
//
//   The rendezvous runs one serial section, in the last worker to arrive:
//
//   Fold — in fixed shard order, each window's event count joins the run
//   total, its clock and halt request reach the simulator, and its trace
//   lines join the one event trace.
//
//   Route — the outboxes of shards 0..S-1, in that order, push each record
//   in schedule order onto its queue: a delivery onto its receiver's
//   shard's, a landing (registering the flight) or external event onto the
//   sequential one (the integrate phase of PhaseBreakdown).
//
//   Decide — grid-mutating or external events due at or before the
//   earliest shard event execute one by one, so at equal ticks mutations
//   go first; their handlers see a quiescent world and may touch any
//   shard. Then a connectivity verdict the last mutation left unknown is
//   settled by one flood and the next horizon is chosen, or the round loop
//   stops.
//
// Determinism: shard queues pop in (time, seq); seqs are assigned by
// deterministic per-queue push order; outboxes are routed in fixed
// producer order, each in its schedule order; each shard draws latencies
// from its own RNG stream (one shard: the master stream); trace lines are
// spliced in shard order. Worker assignment never reorders anything, so
// event traces are byte-identical for every shard_threads value.

namespace sb::sim {

namespace {
/// RNG fork streams for shards live far above the block-id fork space used
/// by module programs (ids are < 2^26), so the streams never collide.
constexpr uint64_t kShardRngStreamBase = uint64_t{1} << 32;

/// Appends `record`'s event-trace line, run by queue `queue`, to `trace`.
void append_trace_line(std::vector<std::string>& trace, size_t queue,
                       const EventRecord& record) {
  trace.push_back(fmt("s={} t={} seq={} {} a={} b={} tag={}", queue,
                      record.time, record.seq, record.kind_name(),
                      record.a.value, record.b.value, record.tag()));
}

/// Prefetches a receiver's slot (null: none): its two cache lines, since
/// slots are line-aligned. Forced inline: GCC 12 deems a function whose
/// only effects are prefetches side-effect free and deletes the call.
[[gnu::always_inline]] inline void prefetch_slot(const std::byte* slot) {
  if (slot == nullptr) return;
  for (size_t offset = 0; offset < Simulator::kModuleSlotBytes;
       offset += Simulator::kModuleSlotAlign) {
    __builtin_prefetch(slot + offset);
  }
}
}  // namespace

void Simulator::init_shards() {
  const lat::WorldView view = world_.view();
  std::vector<uint64_t> column_blocks(static_cast<size_t>(view.width()));
  for (int32_t x = 0; x < view.width(); ++x) {
    column_blocks[static_cast<size_t>(x)] = view.blocks_in_column(x);
  }
  shard_map_ = lat::ShardMap(column_blocks, config_.shards);
  const size_t count = shard_map_.count();
  if (count == 1) {
    lookahead_ = kTimeMax;  // nothing crosses a stripe (see above)
  } else {
    // The lookahead is the guaranteed delay of *any* cross-window effect: a
    // message needs at least the minimum link latency, and a motion — the
    // grid mutations the windows must never straddle — needs
    // motion_duration. Capping at the smaller of the two keeps every
    // mutation scheduled inside a window strictly beyond its horizon.
    SB_EXPECTS(config_.motion_duration >= 1,
               "sharded execution needs motion_duration >= 1 tick (got ",
               config_.motion_duration, ")");
    lookahead_ = std::max<Ticks>(
        1, std::min<Ticks>(config_.latency.min_ticks(),
                           config_.motion_duration));
  }
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<ShardState>();
    shard->index = i;
    shard->rng = count == 1 ? rng_ : rng_.fork(kShardRngStreamBase + i);
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
  std::vector<bool> stripe_has_blocks(count, false);
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
  shard_threads_ = std::min(threads, std::max<size_t>(busy_stripes, 1));

  // Deliberate-bug injection for the fuzzer self-test (simulator.hpp).
  if (const char* fault = std::getenv("SB_SIM_FAULT_DROP_FLUSH")) {
    fault_drop_flush_ = std::strtoll(fault, nullptr, 10);
  }
}

SimStats Simulator::stats() const {
  SimStats total = stats_;
  for (const auto& shard : shards_) total.accumulate(shard->stats);
  return total;
}

std::vector<uint64_t> Simulator::shard_event_counts() const {
  std::vector<uint64_t> counts;
  if (shards_.size() == 1) return counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->stats.events_processed);
  }
  return counts;
}

size_t Simulator::queued_deliveries() const {
  SB_EXPECTS(tls_exec_ == nullptr,
             "queued deliveries are counted between windows");
  size_t queued = 0;
  const auto count = [&queued](const EventRecord& record) {
    queued += record.kind == EventKind::kDelivery ? 1 : 0;
  };
  queue_.for_each(count);
  for (const auto& shard : shards_) {
    SB_ASSERT(shard->outbox.empty(), "shard ", shard->index,
              "'s outbox holds records between windows");
    shard->queue.for_each(count);
  }
  return queued;
}

StopReason Simulator::run(RunLimits limits) {
  run_limits_ = limits;
  run_processed_ = 0;
  run_reason_ = StopReason::kQueueEmpty;
  phases_.merge(run_rounds(
      shard_threads_, shards_.size(),
      [this](SimTime* window_end) { return sharded_rendezvous(window_end); },
      [this](size_t index, SimTime window_end) {
        drain_shard_window(*shards_[index], window_end);
      }));
  // Message conservation: with every queue empty, each message sent was
  // delivered or dropped. The injected drop-flush fault loses deliveries
  // on purpose, and the invariant oracle must be what reports it.
  if (run_reason_ == StopReason::kQueueEmpty && fault_drop_flush_ < 0) {
    const SimStats total = stats();
    const uint64_t sent = total.messages_sent();
    const uint64_t settled = total.messages_delivered + total.messages_dropped;
    SB_ASSERT(sent == settled, "message conservation: ", sent,
              " messages sent but ", settled, " delivered or dropped");
  }
  return run_reason_;
}

bool Simulator::sharded_rendezvous(SimTime* window_end) {
  const uint64_t fold_start = mono_ns();
  {
    const obs::TraceSpan span("fold", "sim");
    sharded_fold();
  }
  const uint64_t route_start = mono_ns();
  {
    const obs::TraceSpan span("integrate", "sim");
    route_outboxes();
  }
  const uint64_t decide_start = mono_ns();
  bool open = false;
  {
    const obs::TraceSpan span("decide", "sim");
    open = sharded_decide(window_end);
  }
  phases_.fold_ns += route_start - fold_start;
  phases_.integrate_ns += decide_start - route_start;
  phases_.decide_ns += mono_ns() - decide_start;
  return open;
}

void Simulator::sharded_fold() {
  for (const auto& shard : shards_) {
    run_processed_ += shard->window_events;
    shard->stats.events_processed += shard->window_events;
    shard->window_events = 0;
    if (shard->now > now_) now_ = shard->now;
    if (shard->halt_requested) {
      shard->halt_requested = false;
      halted_ = true;
    }
    for (std::string& line : shard->trace) trace_.push_back(std::move(line));
    shard->trace.clear();
  }
}

void Simulator::route_outboxes() {
  // Injected bug (SB_SIM_FAULT_DROP_FLUSH, see simulator.hpp): the window
  // numbered fault_drop_flush_ loses every cross-shard delivery. The
  // rendezvous that opens a later run() has no window behind it, and its
  // outboxes are empty.
  const bool drop =
      fault_drop_flush_ >= 0 && windows_opened_ == fault_drop_flush_ + 1;
  // Producer order 0..S-1, each outbox in schedule order: every destination
  // queue receives its records, and so assigns their seqs, in one order
  // that no thread count changes (golden_trace_test's blob1000 cases pin
  // it). A delivery reaches an outbox only when its receiver has a module,
  // so it has a shard.
  for (const auto& producer : shards_) {
    for (EventRecord& record : producer->outbox) {
      if (record.kind != EventKind::kDelivery) {
        // A motion requested inside the window becomes visible here:
        // register the flight so sequential churn can respect
        // cell_in_motion().
        if (record.kind == EventKind::kMotionComplete) {
          inflight_motions_.emplace_back(record.a, record.app());
        }
        queue_.push(std::move(record));
      } else if (!drop) {
        shards_[shard_of(record.b)]->queue.push(std::move(record));
      }
    }
    producer->outbox.clear();
  }
}

bool Simulator::sharded_decide(SimTime* window_end) {
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
      // Causality: a shard that ran an event later than this step read the
      // grid from before it, which every window's horizon must prevent.
      for (const auto& shard : shards_) {
        SB_ASSERT(shard->now <= record.time, "shard ", shard->index,
                  " ran to t=", shard->now, " past the ",
                  record.kind_name(), " at t=", record.time);
      }
      now_ = record.time;
      ++stats_.events_processed;
      if (trace_events_) append_trace_line(trace_, shards_.size(), record);
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

    // Window [t_shard, window_end): bounded by the lookahead, the next grid
    // mutation (t_global > t_shard here), and the time limit. One shard may
    // spend the rest of the budget in it; above one, budgets are checked at
    // the window's edge.
    SimTime end = t_shard + std::min(lookahead_, t_global - t_shard);
    if (run_limits_.until != kTimeMax && run_limits_.until + 1 < end) {
      end = run_limits_.until + 1;
    }
    *window_end = end;
    window_budget_ = shards_.size() == 1
                         ? run_limits_.max_events - run_processed_
                         : UINT64_MAX;
    ++windows_opened_;
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
  shard.horizon = window_end;
  EventQueue& queue = shard.queue;
  // In a world whose programs outgrow the cache, nearly every delivery
  // reaches a receiver whose program left it long ago; asking for that
  // program a few records early hides the miss behind the events between.
  // The slot follows from the receiver's id and the small chunk table, so
  // the look-ahead loads no per-block entry.
  const bool prefetch = module_count_ >= kReceiverPrefetchModules;
  while (const EventRecord* head = queue.peek()) {
    if (head->time >= shard.horizon) break;
    if (prefetch) {
      const EventRecord* ahead = queue.peek_ahead(kReceiverPrefetchDistance);
      if (ahead != nullptr && ahead->kind == EventKind::kDelivery) {
        prefetch_slot(slot_of(ahead->b));
      }
    }
    EventRecord record = queue.pop();
    SB_ASSERT(record.time >= shard.now, "shard time ran backwards");
    shard.now = record.time;
    ++shard.window_events;
    if (trace_events_) append_trace_line(shard.trace, shard.index, record);
    dispatch(record);
    if (shard.window_events == window_budget_) break;
  }
  tls_exec_ = nullptr;
}

}  // namespace sb::sim
