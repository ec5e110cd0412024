#pragma once
// Per-shard execution state and the channel-driven engine of the sharded
// simulator.
//
// When SimConfig::shards > 1 the simulator partitions the surface
// (lattice/shard.hpp) and runs a conservative windowed schedule: each shard
// drains its own event queue for one lookahead window of simulated time,
// pushing cross-shard deliveries straight into the destination shard's
// inbound channel as it goes. Shards rendezvous only at window edges, where
// grid mutations and external events are applied sequentially; a resident
// worker set (ShardEngine) cycles integrate -> decide -> drain rounds over
// a lightweight sense-reversing barrier instead of forking and joining a
// coordinator every window.
//
// Determinism contract (docs/ARCHITECTURE.md "Sharded worlds"): every field
// here is either touched by exactly one worker during a window, or only by
// the barrier's serial section between windows — so the event trace depends
// on the shard count, never on the thread count.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"

namespace sb::sim {

/// Wall-clock totals for the engine's round phases. fold/decide are the
/// serial sections (accrued by whichever worker ran them); integrate/drain
/// sum every worker's parallel loops; barrier_wait is worker time blocked
/// at a rendezvous with no serial work to run. barrier_wait_fraction is the
/// share of total worker time spent waiting — the *time* counterpart of the
/// event-count shard_imbalance metric (docs/OBSERVABILITY.md).
struct PhaseBreakdown {
  uint64_t fold_ns = 0;
  uint64_t integrate_ns = 0;
  uint64_t decide_ns = 0;
  uint64_t drain_ns = 0;
  uint64_t barrier_wait_ns = 0;
  /// Drained windows (rounds that reached the drain phase).
  uint64_t windows = 0;

  [[nodiscard]] uint64_t busy_ns() const {
    return fold_ns + integrate_ns + decide_ns + drain_ns;
  }
  [[nodiscard]] double barrier_wait_fraction() const {
    const double total =
        static_cast<double>(busy_ns()) + static_cast<double>(barrier_wait_ns);
    if (total <= 0.0) return 0.0;
    return static_cast<double>(barrier_wait_ns) / total;
  }
  void merge(const PhaseBreakdown& other) {
    fold_ns += other.fold_ns;
    integrate_ns += other.integrate_ns;
    decide_ns += other.decide_ns;
    drain_ns += other.drain_ns;
    barrier_wait_ns += other.barrier_wait_ns;
    windows += other.windows;
  }
};

/// Everything one shard owns. The owning worker mutates this freely during
/// its window drain; the inbound channel slots are each written by exactly
/// one producer shard per window and consumed by the owner in the
/// integrate phase of the next round.
struct ShardState {
  size_t index = 0;
  /// Pending events addressed to this shard's blocks: those whose modules
  /// registered inside its stripe (Simulator::shard_of), wherever they are
  /// now.
  EventQueue queue;
  /// Independent latency stream, forked from the master seed by shard
  /// index; consumed only while this shard drains, so draw order is
  /// deterministic.
  Rng rng{0};
  /// Local clock while draining a window (monotone across windows): the
  /// time of the last event this shard processed.
  SimTime now = 0;
  /// Events processed in the current window, the one count the drain
  /// keeps; the fold rendezvous adds it to total_events and
  /// stats.events_processed and resets it.
  uint64_t window_events = 0;
  /// Cumulative events processed by this shard (reported per-shard).
  uint64_t total_events = 0;
  /// Per-shard counters, folded into the simulator totals when run()
  /// returns.
  SimStats stats;
  /// Inbound message channel: one slot per producer shard. While shard
  /// `src` drains a window it appends cross-shard deliveries straight into
  /// `inbound[src]` of the destination — single producer per slot, no
  /// locks; the owner integrates all slots in producer order during the
  /// next round's parallel integrate phase. The window barrier is the
  /// happens-before edge between the producer's writes and the owner's
  /// reads.
  std::vector<std::vector<EventRecord>> inbound;
  /// Grid-mutating / external events scheduled this window (motion
  /// completions); merged into the sequential global queue at the fold.
  std::vector<EventRecord> pending_global;
  /// A module on this shard called halt(); honored at the fold.
  bool halt_requested = false;
};

/// Sense-reversing barrier for the engine's rendezvous points. arrive()
/// blocks until all `threads` participants arrive; the last arriver runs
/// the serial section before releasing the rest, so serial work happens
/// exactly once per rendezvous with no extra handoff. Waiters spin briefly
/// (windows are short), then yield, then park on a condition variable so
/// oversubscribed or single-core boxes do not burn their quantum. The
/// releaser advances the phase under the parking mutex: a waiter tests the
/// phase and parks atomically with respect to that store, so no wakeup can
/// fall between its test and its sleep. With one thread, arrive() runs the
/// serial section inline and takes no lock.
class WindowBarrier {
 public:
  explicit WindowBarrier(uint32_t threads) : threads_(threads) {}

  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  [[nodiscard]] uint32_t threads() const { return threads_; }

  template <typename SerialFn>
  void arrive(SerialFn&& serial) {
    if (threads_ == 1) {
      serial();
      return;
    }
    const uint32_t ticket = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads_) {
      serial();
      arrived_.store(0, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(park_mutex_);
        phase_.store(ticket + 1, std::memory_order_release);
      }
      parked_.notify_all();
      return;
    }
    for (int spin = 0; spin < 1024; ++spin) {
      if (phase_.load(std::memory_order_acquire) != ticket) return;
      if (spin >= 64) std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    parked_.wait(lock, [&] {
      return phase_.load(std::memory_order_acquire) != ticket;
    });
  }

 private:
  const uint32_t threads_;
  std::atomic<uint32_t> arrived_{0};
  /// Round counter; a changed phase releases the current rendezvous.
  std::atomic<uint32_t> phase_{0};
  /// Parking for waiters that outlast the spin; the phase only advances
  /// while this is held.
  std::mutex park_mutex_;
  std::condition_variable parked_;
};

/// The channel-driven shard engine: a fixed set of resident workers that
/// own shards by stride (worker w owns shards w, w+T, ...). run() executes
/// rounds of
///
///   rendezvous[fold] -> integrate(owned) -> rendezvous[decide] ->
///   drain(owned, horizon)
///
/// until decide() stops the loop. The parallel phases touch only
/// worker-owned shards (plus single-producer channel slots); the two
/// rendezvous run their serial hooks in the last-arriving worker. Workers
/// park between run() calls; the caller always participates as worker 0,
/// and with one thread the loop runs inline with no spawned threads at
/// all.
class ShardEngine {
 public:
  struct Hooks {
    /// Serial: fold the just-drained window (counters, pending globals,
    /// connectivity hints). The first fold of a run() precedes any drain
    /// and must be a no-op on untouched state.
    std::function<void()> fold;
    /// Parallel: integrate one shard's inbound channel slots.
    std::function<void(size_t shard)> integrate;
    /// Serial: run due sequential events and pick the next window horizon.
    /// Returns false to stop the round loop.
    std::function<bool(SimTime* window_end)> decide;
    /// Parallel: drain one shard's queue up to `window_end`.
    std::function<void(size_t shard, SimTime window_end)> drain;
  };

  /// `threads` >= 1 total workers (threads - 1 are spawned and parked).
  ShardEngine(size_t threads, size_t shards);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] size_t threads() const { return threads_; }
  [[nodiscard]] size_t shards() const { return shards_; }

  /// Runs rounds until hooks.decide() returns false; the caller
  /// participates as worker 0 and the call returns only when every worker
  /// is parked again.
  void run(const Hooks& hooks);

  /// Phase totals summed over workers since the last reset. Only valid
  /// while the workers are parked (i.e. outside run()).
  [[nodiscard]] PhaseBreakdown phase_totals() const;
  /// Zeroes the phase totals (after the simulator folds them into its own
  /// accumulator).
  void reset_observability();

 private:
  /// Per-worker observability state, cache-line separated: each worker is
  /// the only writer of its slot during a round; readers run while the
  /// workers are parked.
  struct alignas(64) WorkerObs {
    PhaseBreakdown phases;
  };

  void worker_main(size_t worker);
  void round_loop(size_t worker);

  const size_t threads_;
  const size_t shards_;
  WindowBarrier barrier_;

  /// Round decision, written only inside barrier serial sections and read
  /// by all workers after the release edge.
  SimTime window_end_ = 0;
  bool stop_ = false;
  const Hooks* hooks_ = nullptr;

  /// Resident-worker parking between run() calls.
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::vector<WorkerObs> worker_obs_;
};

}  // namespace sb::sim
