#pragma once
// The discrete-event simulator: world + modules + event loop.
//
// This is the library's stand-in for VisibleSim (paper §V.E): an
// event-driven core where block programs run asynchronously and interact
// only through messages with randomized link latency. Executions are
// deterministic for a fixed seed.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lattice/shard.hpp"
#include "motion/apply.hpp"
#include "msg/latency.hpp"
#include "msg/message.hpp"
#include "sim/event_queue.hpp"
#include "sim/module.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/flat_counts.hpp"
#include "util/rng.hpp"

namespace sb::sim {

struct SimConfig {
  /// Master seed; all simulation randomness derives from it.
  uint64_t seed = 0x5eedULL;
  /// Link latency model (Assumption 3: finite delivery time).
  msg::LatencyModel latency = msg::LatencyModel::fixed(1);
  /// Ticks a motion takes from request to landing.
  Ticks motion_duration = 10;
  /// Shards the world is partitioned into. 1 keeps the classic single
  /// event loop byte-for-byte; > 1 switches to the windowed sharded
  /// schedule (per-shard queues, RNG streams, and counters) over column
  /// stripes cut at equal block count, clamped to the surface width. See
  /// docs/ARCHITECTURE.md.
  size_t shards = 1;
  /// Worker threads draining shard windows in parallel (only used when
  /// shards > 1). 0 = hardware concurrency; always capped at the number of
  /// stripes that hold blocks at construction. Event traces are
  /// byte-identical for every value — thread count affects wall-clock only.
  size_t shard_threads = 1;
};

struct RunLimits {
  uint64_t max_events = UINT64_MAX;
  SimTime until = kTimeMax;
};

enum class StopReason { kQueueEmpty, kEventLimit, kTimeLimit, kHalted };

[[nodiscard]] std::string_view to_string(StopReason reason);

class Simulator {
 public:
  explicit Simulator(World world, SimConfig config = SimConfig{});

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const World& world() const { return world_; }
  /// Current simulated time: the executing shard's local clock while a
  /// window drains on this thread, the global clock otherwise.
  [[nodiscard]] SimTime now() const {
    const ShardState* ctx = tls_exec_;
    return ctx != nullptr ? ctx->now : now_;
  }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Simulator-wide counters. In sharded mode the per-shard counters are
  /// folded in every time run() returns (mid-run reads see only the
  /// sequential share).
  [[nodiscard]] SimStats& stats() { return stats_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }

  // -- sharding -------------------------------------------------------------

  /// Effective shard count: 1 in classic mode, else config().shards clamped
  /// to the surface width.
  [[nodiscard]] size_t shard_count() const {
    return sharded_ ? shards_.size() : 1;
  }
  /// Worker threads draining shard windows: 1 in classic mode, else
  /// config().shard_threads capped at the stripes that held blocks when
  /// the simulator was built.
  [[nodiscard]] size_t shard_thread_count() const {
    return engine_ != nullptr ? engine_->threads() : 1;
  }
  /// Shard that runs block `id`'s events (always 0 in classic mode): the
  /// stripe the block stood in when its module registered, kept however
  /// far the block moves. `id` must have a module.
  [[nodiscard]] size_t shard_of(lat::BlockId id) const {
    if (!sharded_) return 0;
    SB_ASSERT(id.value < block_shard_.size(), "block ", id, " has no shard");
    return block_shard_[id.value];
  }
  /// Cumulative events processed per shard (empty in classic mode).
  [[nodiscard]] std::vector<uint64_t> shard_event_counts() const;

  /// Starts recording one line per dispatched event. Streams are per shard
  /// plus one for the sequential (grid-mutating / external) steps — classic
  /// mode records a single stream. The determinism tests compare these
  /// byte-for-byte across shard-thread counts.
  void enable_event_trace();
  [[nodiscard]] const std::vector<std::vector<std::string>>& event_trace()
      const {
    return trace_streams_;
  }

  /// Round-phase wall-clock accumulated over every sharded run() call
  /// (all-zero in classic mode); see sim/shard.hpp PhaseBreakdown. Purely
  /// observational — never feeds back into scheduling.
  [[nodiscard]] const PhaseBreakdown& phase_breakdown() const {
    return phases_;
  }

  // -- modules --------------------------------------------------------------

  /// Registers the program for a block already placed on the grid.
  Module& add_module(std::unique_ptr<Module> module);

  /// O(1): the module table is a dense array indexed by block id.
  [[nodiscard]] Module* find_module(lat::BlockId id) {
    return id.valid() && id.value < modules_.size() ? modules_[id.value].get()
                                                    : nullptr;
  }
  [[nodiscard]] size_t module_count() const { return module_count_; }

  template <typename T>
  [[nodiscard]] T& module_as(lat::BlockId id) {
    Module* module = find_module(id);
    SB_EXPECTS(module != nullptr, "no module for block ", id);
    auto* typed = dynamic_cast<T*>(module);
    SB_EXPECTS(typed != nullptr, "module for block ", id,
               " has an unexpected type");
    return *typed;
  }

  /// Iterates modules in id order.
  template <typename Fn>
  void for_each_module(Fn&& fn) {
    for (auto& module : modules_) {
      if (module != nullptr) fn(*module);
    }
  }

  /// Fault injection: the block's program stops responding; the block stays
  /// on the grid as an inert obstacle (paper §VI future work).
  void kill_module(lat::BlockId id);

  /// Schedules on_start() for one module at the current time (hot-join
  /// churn: a module registered mid-run). In sharded mode, call only from a
  /// sequential context (an external event or between run() calls).
  void start_module(lat::BlockId id);

  /// Recomputes neighbor tables around externally mutated cells and fires
  /// on_neighbor_change where contacts changed — the grid-side half of a
  /// hot-join (core::ReconfigurationSession::hot_join). Like start_module,
  /// sequential contexts only.
  void notify_cells_changed(const std::vector<lat::Vec2>& cells) {
    refresh_neighbors_around(cells);
  }

  /// True when an in-flight motion touches `pos` (source or destination of
  /// any pending elementary move). External stimuli must not place blocks
  /// on such cells: the mover sweeps through them before its landing event
  /// executes. Sequential contexts only (the registry is updated at window
  /// barriers in sharded mode).
  [[nodiscard]] bool cell_in_motion(lat::Vec2 pos) const;

  /// Observer invoked after every grid-affecting event (motion completion
  /// or external event), always from the sequential context — in sharded
  /// mode these events run between windows on the coordinating thread. The
  /// invariant oracle (src/check/oracle.hpp) hooks here to audit the world
  /// after each mutation.
  void set_mutation_observer(std::function<void(Simulator&)> observer) {
    mutation_observer_ = std::move(observer);
  }

  // -- event loop -----------------------------------------------------------

  /// Schedules a user-defined event (tests, benches, fault injection). The
  /// built-in behaviours go through allocation-free EventRecords instead.
  void schedule(SimTime when, std::unique_ptr<Event> event);

  /// Queues on_start() for every registered module at the current time.
  void start_all_modules();

  /// Runs until the queues drain, a limit hits, or halt() is called. In
  /// sharded mode events execute in lookahead windows; limits are honored
  /// at window granularity (an event budget may overshoot by one window,
  /// deterministically).
  StopReason run(RunLimits limits = RunLimits{});

  /// Processes a single event; false when the queue is empty. Classic
  /// (unsharded) mode only.
  bool step();

  /// Stops the run loop after the current event (modules call this through
  /// their program when the distributed computation finishes). From inside
  /// a shard window the request is honored at the window barrier.
  void halt() {
    ShardState* ctx = tls_exec_;
    if (ctx != nullptr) {
      ctx->halt_requested = true;
    } else {
      halted_ = true;
    }
  }
  [[nodiscard]] bool halted() const { return halted_; }

  [[nodiscard]] size_t pending_events() const {
    size_t pending = queue_.size();
    for (const auto& shard : shards_) pending += shard->queue.size();
    return pending;
  }

  // -- services used by Module ----------------------------------------------

  /// Sends `message` across `sender`'s contact on `side`, as
  /// Module::send does (tests and benches inject traffic through it).
  template <msg::Body M>
  void send_from(Module& sender, lat::Direction side, M message) {
    send_envelope(sender, side, msg::Message::pack(message), M::kName);
  }
  /// The untyped half of send_from: `kind` keys the per-kind counts.
  void send_envelope(Module& sender, lat::Direction side,
                     const msg::Message& envelope, std::string_view kind);
  void timer_for(Module& module, Ticks delay, uint64_t tag);
  void start_motion_for(Module& subject, const motion::RuleApplication& app);

 private:
  void schedule_record(EventRecord&& record);
  void dispatch(EventRecord& record);

  void deliver(const EventRecord& record);
  void complete_motion(lat::BlockId subject,
                       const motion::RuleApplication& app);
  /// Recomputes neighbor tables around the given cells and fires
  /// on_neighbor_change for every block whose contacts changed.
  void refresh_neighbors_around(const std::vector<lat::Vec2>& cells);

  /// Counters the current context owns: the draining shard's during a
  /// window, the simulator's otherwise.
  [[nodiscard]] SimStats& active_stats() {
    ShardState* ctx = tls_exec_;
    return ctx != nullptr ? ctx->stats : stats_;
  }
  /// Latency stream the current context draws from. Per-shard draws keep
  /// the draw order deterministic while windows execute in parallel.
  [[nodiscard]] Rng& active_rng(const Module& sender);

  // -- sharded mode (simulator_sharded.cpp) ---------------------------------

  void init_shards();
  StopReason run_sharded(RunLimits limits);
  /// Serial rendezvous hook: folds the just-drained window's counters and
  /// merges pending grid-mutating events into the sequential queue. Fixed
  /// shard order; runs in the barrier's last-arriving worker.
  void sharded_fold();
  /// Parallel rendezvous hook: drains one shard's inbound channel slots
  /// into its queue, in producer-shard order.
  void sharded_integrate(size_t index);
  /// Serial rendezvous hook: executes due sequential (grid-mutating /
  /// external) events, settles the grid's connectivity verdict, and picks
  /// the next window horizon. Returns false to stop the round loop,
  /// recording the reason in run_reason_.
  bool sharded_decide(SimTime* window_end);
  void drain_shard_window(ShardState& shard, SimTime window_end);
  /// Folds per-shard stats into the simulator totals (called whenever
  /// run_sharded returns).
  void merge_shard_stats();
  void record_trace(size_t stream, const EventRecord& record);

  World world_;
  SimConfig config_;
  Rng rng_;
  SimTime now_ = 0;
  bool halted_ = false;
  /// Classic mode: every pending event. Sharded mode: the grid-mutating
  /// (motion-complete) and external events, always executed sequentially
  /// between windows so handlers see a quiescent world; module events live
  /// in the shard queues.
  EventQueue queue_;
  /// Dense table indexed by id (ids are small and near-contiguous; see
  /// Grid). Index order == id order, so iteration stays deterministic.
  std::vector<std::unique_ptr<Module>> modules_;
  size_t module_count_ = 0;
  SimStats stats_;
  /// Motions requested but not yet landed, keyed by subject. Classic mode
  /// registers at request time; sharded mode at the barrier flush (requests
  /// made inside windows buffer through pending_global), so the registry is
  /// only ever touched from sequential contexts.
  std::vector<std::pair<lat::BlockId, motion::RuleApplication>>
      inflight_motions_;

  // -- sharded mode ---------------------------------------------------------

  std::function<void(Simulator&)> mutation_observer_;

  bool sharded_ = false;
  Ticks lookahead_ = 1;
  lat::ShardMap shard_map_;
  /// Dense table indexed by id: the shard of each registered block, set
  /// once by add_module from shard_map_ (hot-joined blocks included).
  std::vector<uint32_t> block_shard_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<ShardEngine> engine_;
  /// Per-run() loop state shared by the engine hooks: limits, events
  /// counted so far, and the stop reason sharded_decide() settled on.
  /// Written only inside barrier serial sections.
  RunLimits run_limits_{};
  uint64_t run_processed_ = 0;
  StopReason run_reason_ = StopReason::kQueueEmpty;
  /// Phase-time accumulator, folded in from the engine after each sharded
  /// run() while the workers are parked.
  PhaseBreakdown phases_;
  /// True between a window drain and the fold that consumes it; the
  /// bootstrap fold of a run() (no window drained yet) must not advance
  /// the fault-flush counter.
  bool window_pending_fold_ = false;
  /// Set by the fold when the injected fault fires: the following
  /// integrate phase discards every channel slot instead of routing it.
  bool drop_integration_ = false;
  bool trace_events_ = false;
  std::vector<std::vector<std::string>> trace_streams_;
  /// Deliberate-bug injection for the differential fuzzer's self-test
  /// (tools/fuzz_sim, tests/check_test): when the SB_SIM_FAULT_DROP_FLUSH
  /// env var holds N >= 0, the rendezvous after the N-th window silently
  /// discards the cross-shard channel slots instead of integrating them —
  /// a lost-message bug that only the sharded engine exhibits, so the
  /// differential harness must catch it. -1 = off.
  int64_t fault_drop_flush_ = -1;
  int64_t flush_count_ = 0;
  /// The shard whose window the current thread is draining (null outside
  /// parallel phases); routes now()/halt()/scheduling to shard state.
  /// Declared constinit in-class: with an out-of-class definition, GCC 12
  /// -O2 UBSan builds flag the first write on a thread as a null store.
  static constinit inline thread_local ShardState* tls_exec_ = nullptr;
};

}  // namespace sb::sim
