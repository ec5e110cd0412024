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
#include <string_view>
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
#include "util/rng.hpp"

namespace sb::sim {

struct SimConfig {
  /// Master seed; all simulation randomness derives from it.
  uint64_t seed = 0x5eedULL;
  /// Link latency model (Assumption 3: finite delivery time).
  msg::LatencyModel latency = msg::LatencyModel::fixed(1);
  /// Ticks a motion takes from request to landing.
  Ticks motion_duration = 10;
  /// Shards the world is partitioned into: column stripes cut at equal
  /// block count, clamped to the surface width, each with its own queue
  /// and counters. Every count runs the one windowed engine (see
  /// docs/ARCHITECTURE.md "Sharded worlds"); one shard draws latencies
  /// from the master stream, more fork a stream per shard.
  size_t shards = 1;
  /// Worker threads draining shard windows in parallel. 0 = hardware
  /// concurrency; always capped at the number of stripes that hold blocks
  /// at construction, so one shard drains on the calling thread. Event
  /// traces are byte-identical for every value — thread count affects
  /// wall-clock only.
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
  /// Registered modules from which a window's drain prefetches the program
  /// of the delivery kReceiverPrefetchDistance records ahead in its queue.
  /// 8192 programs in 256-byte malloc chunks fill a 2 MiB L2; below that
  /// the world's programs stay in cache and the prefetch only costs
  /// instructions. Set from the measured crossover (docs/BENCHMARKS.md
  /// "Receiver prefetch").
  static constexpr size_t kReceiverPrefetchModules = 8192;
  /// Records between the head and the delivery whose receiver is fetched.
  static constexpr uint32_t kReceiverPrefetchDistance = 8;
  /// Bytes of a receiver's program the prefetch covers (four cache lines
  /// from its address); core::SmartBlockCode asserts that it fits.
  static constexpr size_t kReceiverPrefetchBytes = 240;

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
  /// Simulator-wide counters: the sequential share plus every shard's,
  /// summed when read. Read from sequential contexts only.
  [[nodiscard]] SimStats stats() const;
  [[nodiscard]] const SimConfig& config() const { return config_; }

  // -- sharding -------------------------------------------------------------

  /// Effective shard count: config().shards clamped to the surface width.
  [[nodiscard]] size_t shard_count() const { return shards_.size(); }
  /// Worker threads draining shard windows: config().shard_threads capped
  /// at the stripes that held blocks when the simulator was built.
  [[nodiscard]] size_t shard_thread_count() const {
    return shard_threads_;
  }
  /// Shard that runs block `id`'s events: the stripe the block stood in
  /// when its module registered, kept however far the block moves. `id`
  /// must have a module.
  [[nodiscard]] size_t shard_of(lat::BlockId id) const {
    SB_ASSERT(id.value < block_shard_.size(), "block ", id, " has no shard");
    return block_shard_[id.value];
  }
  /// Cumulative events processed per shard; empty at one shard, whose
  /// count is stats().events_processed less the sequential steps.
  [[nodiscard]] std::vector<uint64_t> shard_event_counts() const;

  /// Starts recording one line per dispatched event, in the order the
  /// rendezvous sees them: each window's lines shard by shard, then the
  /// sequential (grid-mutating / external) steps that follow it. A line's
  /// `s=` names its queue: the shard index, or shard_count() for the
  /// sequential one. The determinism tests compare traces byte-for-byte
  /// across shard-thread counts.
  void enable_event_trace() { trace_events_ = true; }
  [[nodiscard]] const std::vector<std::string>& event_trace() const {
    return trace_;
  }

  /// Round-phase wall-clock accumulated over every run() call; see
  /// sim/shard.hpp PhaseBreakdown. Purely observational — never feeds back
  /// into scheduling.
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
  /// churn: a module registered mid-run). Call only from a sequential
  /// context (an external event or between run() calls).
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
  /// executes. Sequential contexts only (motions requested inside a window
  /// register at its rendezvous).
  [[nodiscard]] bool cell_in_motion(lat::Vec2 pos) const;

  /// Observer invoked after every grid-affecting event (motion completion
  /// or external event), always from the sequential context: these events
  /// run between windows, in the rendezvous's serial section. The
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

  /// Runs until the queues drain, a limit hits, or halt() is called.
  /// Events execute in windows (sim/shard.hpp). One shard stops exactly on
  /// the event budget and right after the event that halts; above one,
  /// budgets and halts are honored at the window's edge (a budget may
  /// overshoot by one window, deterministically), since a shard stopped
  /// mid-window would leave the others' clocks ahead of it.
  StopReason run(RunLimits limits = RunLimits{});

  /// Stops the run loop after the current event (modules call this through
  /// their program when the distributed computation finishes). Inside a
  /// window the request is honored at the window's edge, which at one
  /// shard it moves to right after the current event.
  void halt() {
    ShardState* ctx = tls_exec_;
    if (ctx == nullptr) {
      halted_ = true;
      return;
    }
    ctx->halt_requested = true;
    if (shards_.size() == 1) ctx->horizon = 0;
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
    send_envelope(sender, side, msg::Message::pack(message));
  }
  /// The untyped half of send_from; counts the message under its tag.
  void send_envelope(Module& sender, lat::Direction side,
                     const msg::Message& envelope);
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
  /// Latency stream the current context draws from: the sender's shard's.
  /// Per-shard draws keep the draw order deterministic while windows
  /// execute in parallel.
  [[nodiscard]] Rng& active_rng(const Module& sender);

  // -- the windowed engine (simulator_sharded.cpp) ---------------------------

  void init_shards();
  /// The rendezvous's serial section, run by the last-arriving worker:
  /// fold, route, decide, each timed into phases_. Returns false to stop
  /// the round loop.
  bool sharded_rendezvous(SimTime* window_end);
  /// Folds the just-drained window's event counts, clocks, halts and trace
  /// lines, in fixed shard order.
  void sharded_fold();
  /// Moves every shard's outbox, in shard order, onto its destination
  /// queues: deliveries to the receivers' shards, landings and external
  /// events to the sequential queue.
  void route_outboxes();
  /// Executes due sequential (grid-mutating / external) events, settles
  /// the grid's connectivity verdict, and picks the next window horizon.
  /// Returns false to stop the round loop, recording the reason in
  /// run_reason_.
  bool sharded_decide(SimTime* window_end);
  void drain_shard_window(ShardState& shard, SimTime window_end);

  World world_;
  SimConfig config_;
  Rng rng_;
  SimTime now_ = 0;
  bool halted_ = false;
  /// The grid-mutating (motion-complete) and external events, always
  /// executed sequentially between windows so handlers see a quiescent
  /// world; module events live in the shard queues.
  EventQueue queue_;
  /// Dense table indexed by id (ids are small and near-contiguous; see
  /// Grid). Index order == id order, so iteration stays deterministic.
  std::vector<std::unique_ptr<Module>> modules_;
  size_t module_count_ = 0;
  /// The sequential share of the counters (stats() adds the shards').
  SimStats stats_;
  /// Motions requested but not yet landed, keyed by subject. A request
  /// from a sequential context registers at once; one made inside a window
  /// rides its shard's outbox and registers when the rendezvous routes it,
  /// so the registry is only ever touched from sequential contexts.
  std::vector<std::pair<lat::BlockId, motion::RuleApplication>>
      inflight_motions_;

  std::function<void(Simulator&)> mutation_observer_;

  // -- the windowed engine --------------------------------------------------

  /// Longest window: the guaranteed delay of any cross-shard effect, or
  /// kTimeMax at one shard, whose windows need no lookahead.
  Ticks lookahead_ = 1;
  lat::ShardMap shard_map_;
  /// Dense table indexed by id: the shard of each registered block, set
  /// once by add_module from shard_map_ (hot-joined blocks included).
  std::vector<uint32_t> block_shard_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Workers that drain shard windows (shard_thread_count()).
  size_t shard_threads_ = 1;
  /// Per-run() loop state of the rendezvous: limits, events counted so
  /// far, the events the open window may process (the rest of the budget
  /// at one shard, unbounded above), and the stop reason sharded_decide()
  /// settled on. Written only inside the serial section.
  RunLimits run_limits_{};
  uint64_t run_processed_ = 0;
  uint64_t window_budget_ = UINT64_MAX;
  StopReason run_reason_ = StopReason::kQueueEmpty;
  /// Phase-time accumulator: the serial section adds its fold, integrate
  /// and decide times as it runs; each run() adds the workers'
  /// drain and barrier-wait times once they are joined.
  PhaseBreakdown phases_;
  /// Windows sharded_decide() has opened over the simulator's life; they
  /// number the windows for the injected fault below.
  int64_t windows_opened_ = 0;
  bool trace_events_ = false;
  std::vector<std::string> trace_;
  /// Deliberate-bug injection for the differential fuzzer's self-test
  /// (tools/fuzz_sim, tests/check_test): when the SB_SIM_FAULT_DROP_FLUSH
  /// env var holds N >= 0, the rendezvous after the N-th window (counted
  /// from 0) silently discards every delivery in the outboxes instead of
  /// routing it (landings still route) — a lost-message bug that only a
  /// world of several shards exhibits, so the differential harness must
  /// catch it. -1 = off.
  int64_t fault_drop_flush_ = -1;
  /// The shard whose window the current thread is draining (null outside
  /// a drain); routes now()/halt()/scheduling to shard state.
  /// Declared constinit in-class: with an out-of-class definition, GCC 12
  /// -O2 UBSan builds flag the first write on a thread as a null store.
  static constinit inline thread_local ShardState* tls_exec_ = nullptr;
};

}  // namespace sb::sim
