#pragma once
// The discrete-event simulator: world + modules + event loop.
//
// This is the library's stand-in for VisibleSim (paper §V.E): an
// event-driven core where block programs run asynchronously and interact
// only through messages with randomized link latency. Executions are
// deterministic for a fixed seed.

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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
  /// Bytes of the slot each block's program is built in (add_module): two
  /// cache lines. core::SmartBlockCode asserts that it fits.
  static constexpr size_t kModuleSlotBytes = 128;
  /// A cache line. Chunks of slots start on one and a slot is a whole
  /// number of them, so every program occupies exactly its slot's lines.
  static constexpr size_t kModuleSlotAlign = 64;
  static_assert(kModuleSlotBytes % kModuleSlotAlign == 0);
  /// Consecutive ids whose slots share one allocation: 256 × 128 = 32 768
  /// bytes, under glibc's 128 KiB mmap threshold, so the heap serves every
  /// chunk whatever the malloc settings, and a chunk never moves.
  static constexpr uint32_t kModuleChunkIds = 256;
  /// Registered modules from which a window's drain prefetches the slot
  /// of the delivery kReceiverPrefetchDistance records ahead in its queue.
  /// 16384 programs in 128-byte slots take 2 MiB, about an L2; below that
  /// the world's programs stay in cache and the prefetch only costs
  /// instructions. Measured on these slots (docs/BENCHMARKS.md "Programs
  /// in 128-byte slots"): blob10000 ran at a median 24.4 M events/s with
  /// the gate here, unprefetched, against 23.3 with it at 8192, faster in
  /// 9 of 10 rounds; blob100000 and blob1000000, above both, read alike.
  static constexpr size_t kReceiverPrefetchModules = 16384;
  /// Records between the head and the delivery whose receiver is fetched.
  static constexpr uint32_t kReceiverPrefetchDistance = 8;

  explicit Simulator(World world, SimConfig config = SimConfig{});
  /// Destroys every registered program in id order, killed and hot-joined
  /// ones included, before the world and the slots go.
  ~Simulator();
  /// Programs point back at their simulator (Module::sim()).
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

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

  /// Builds block `id`'s program, T(id, args...), in place in the id's
  /// slot and registers it. The block must be on the grid and have no
  /// program yet; both are checked before anything is built. Sequential
  /// contexts only. The program keeps its address until the simulator is
  /// destroyed (a later registration never moves it).
  template <class T, class... Args>
  T& add_module(lat::BlockId id, Args&&... args) {
    static_assert(std::is_base_of_v<Module, T>, "a module derives from Module");
    static_assert(sizeof(T) <= kModuleSlotBytes,
                  "a module program must fit its slot");
    static_assert(alignof(T) <= kModuleSlotAlign,
                  "a module slot is only line-aligned");
    std::byte* slot = claim_slot(id);
    T* module = ::new (static_cast<void*>(slot))
        T(id, std::forward<Args>(args)...);
    register_module(*module, slot);
    return *module;
  }

  /// O(1) and free of any table of programs: the world's tag column says
  /// whether `id` has a program, and the id gives its slot.
  [[nodiscard]] Module* find_module(lat::BlockId id) {
    return world_.view().tag(id) != lat::ModuleTag::kUnregistered
               ? module_at(id)
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
    for_each_registered_id([&](lat::BlockId id) { fn(*module_at(id)); });
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

  /// Queues on_start() for every registered module at the current time,
  /// in id order.
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
  /// Deliveries scheduled and not yet run, counted by a read-only walk of
  /// every queue. Sequential contexts only, where the rendezvous has routed
  /// every outbox (asserted), so each message sent is delivered, dropped or
  /// counted here.
  [[nodiscard]] size_t queued_deliveries() const;

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
  /// Checks add_module's preconditions for `id` and returns its slot,
  /// allocating the slot's chunk on first use.
  [[nodiscard]] std::byte* claim_slot(lat::BlockId id);
  /// Registers the program just built in `slot`: host, neighbour table,
  /// shard, and the kAlive tag that makes it findable.
  void register_module(Module& module, const std::byte* slot);

  /// Slot of `id`, or null when no chunk holds it (an invalid id, an id
  /// past the chunk table, or one in a chunk nothing registered in).
  [[nodiscard]] std::byte* slot_of(lat::BlockId id) const {
    const size_t chunk = id.value / kModuleChunkIds;
    if (chunk >= module_chunks_.size()) return nullptr;
    std::byte* base = module_chunks_[chunk].get();
    return base == nullptr
               ? nullptr
               : base + size_t{id.value % kModuleChunkIds} * kModuleSlotBytes;
  }
  /// The program in `id`'s slot, for a registered `id` (null if its chunk
  /// is missing). register_module checked that the Module base starts the
  /// slot.
  [[nodiscard]] Module* module_at(lat::BlockId id) const {
    std::byte* slot = slot_of(id);
    return slot != nullptr ? std::launder(reinterpret_cast<Module*>(slot))
                           : nullptr;
  }
  /// `id`'s program if its tag says alive, else null: one tag read answers
  /// both "registered" and "alive".
  [[nodiscard]] Module* live_module(lat::BlockId id) const {
    return world_.view().alive(id) ? module_at(id) : nullptr;
  }
  /// Calls fn(id) for every registered id in id order, reading the chunk
  /// table and the tag column only, never a program.
  template <typename Fn>
  void for_each_registered_id(Fn&& fn) const {
    const lat::WorldView view = world_.view();
    for (size_t chunk = 0; chunk < module_chunks_.size(); ++chunk) {
      if (module_chunks_[chunk] == nullptr) continue;
      const auto first = static_cast<uint32_t>(chunk * kModuleChunkIds);
      for (uint32_t value = first; value < first + kModuleChunkIds; ++value) {
        const lat::BlockId id{value};
        if (view.tag(id) != lat::ModuleTag::kUnregistered) fn(id);
      }
    }
  }

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
  /// Frees a chunk with the aligned delete[] matching its aligned new[].
  struct ChunkDelete {
    void operator()(std::byte* chunk) const {
      ::operator delete[](chunk, std::align_val_t{kModuleSlotAlign});
    }
  };
  /// The programs' storage: chunk c holds the kModuleSlotBytes slots of
  /// ids [c·kModuleChunkIds, (c+1)·kModuleChunkIds), allocated on a
  /// kModuleSlotAlign boundary when the first of them registers (ids are
  /// small and near-contiguous; see Grid). The world's tag column, not this
  /// table, says which slots hold a program.
  std::vector<std::unique_ptr<std::byte[], ChunkDelete>> module_chunks_;
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
