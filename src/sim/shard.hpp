#pragma once
// Per-shard execution state and the round loop of the simulator's engine.
//
// The simulator partitions the surface (lattice/shard.hpp) into
// SimConfig::shards stripes, one or more, and runs a conservative windowed
// schedule: each shard drains its own event queue for one window of
// simulated time, collecting what it schedules for elsewhere (deliveries
// to other shards, motion landings) in its own outbox. Shards rendezvous
// once per window, at its edge: the serial section folds the window,
// routes every outbox to its destination queues, applies grid mutations
// and external events sequentially and picks the next horizon; then the
// workers (run_rounds) drain the next window in parallel. A window spans
// the lookahead above one shard and runs to the next grid mutation at one
// (sim/simulator_sharded.cpp).
//
// Determinism contract (docs/ARCHITECTURE.md "Sharded worlds"): every field
// here is either touched by exactly one worker during a window, or only by
// the barrier's serial section between windows — so the event trace depends
// on the shard count, never on the thread count.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"

namespace sb::sim {

/// Steady-clock nanoseconds, the clock PhaseBreakdown is measured on.
[[nodiscard]] uint64_t mono_ns();

/// Wall-clock totals for the engine's round phases. fold, integrate (routing
/// the outboxes' deliveries and landings to their queues) and decide split
/// the serial section, accrued by whichever worker ran it; drain sums every
/// worker's parallel loop; barrier_wait is worker time blocked at the
/// rendezvous with no serial work to run. barrier_wait_fraction is the share
/// of total worker time spent waiting — the *time* counterpart of the
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
/// its window drain; the rendezvous's serial section reads and resets it
/// between windows.
struct ShardState {
  size_t index = 0;
  /// Pending events addressed to this shard's blocks: those whose modules
  /// registered inside its stripe (Simulator::shard_of), wherever they are
  /// now.
  EventQueue queue;
  /// Latency stream of this shard's senders: the master stream when the
  /// world has one shard, else a stream forked from the master seed by
  /// shard index. Consumed only by this shard's events and by sequential
  /// sends from its blocks, so draw order is deterministic.
  Rng rng{0};
  /// Local clock while draining a window (monotone across windows): the
  /// time of the last event this shard processed.
  SimTime now = 0;
  /// End of the open window: events at or past it wait for a later one.
  /// The drain starts it at the decided window_end; a grid mutation the
  /// drain schedules lowers it to the mutation's tick, and halt() at one
  /// shard lowers it to 0.
  SimTime horizon = 0;
  /// Events processed in the current window, the one count the drain
  /// keeps; the fold adds it to stats.events_processed and resets it.
  uint64_t window_events = 0;
  /// This shard's cumulative counters; Simulator::stats() sums them with
  /// the sequential share when read.
  SimStats stats;
  /// What this shard's window schedules for elsewhere, in schedule order:
  /// deliveries to other shards' blocks, and motion landings and external
  /// events for the sequential queue. Only the draining worker appends;
  /// the next rendezvous routes every shard's outbox, in shard order.
  std::vector<EventRecord> outbox;
  /// Event-trace lines of the window, in drain order; the fold splices
  /// every shard's into the simulator's one trace, in shard order.
  std::vector<std::string> trace;
  /// A module on this shard called halt(); honored at the fold.
  bool halt_requested = false;
};

/// Sense-reversing barrier for the engine's rendezvous. arrive()
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

/// Runs the sharded engine's rounds on `threads` workers (>= 1, at most
/// `shards`) until `serial` returns false. A round is one rendezvous and
/// one parallel drain:
///
///   rendezvous[serial(&window_end)] -> drain(owned shards, window_end)
///
/// Worker w drains shards w, w+T, ... by stride. `serial` runs once per
/// round, in the last worker to arrive, while every other worker waits; the
/// barrier's release edge publishes its window_end to them and orders each
/// drain's writes before the next serial section. N windows therefore take
/// N + 1 serial sections: the first precedes any drain and the last stops
/// the loop. The caller is worker 0; the T - 1 helper threads live for this
/// call only, and with one thread every call runs inline on the caller.
/// Returns the drain and barrier-wait time summed over workers and the
/// drained window count; the serial section's own phase split is left to
/// `serial`.
PhaseBreakdown run_rounds(
    size_t threads, size_t shards,
    const std::function<bool(SimTime* window_end)>& serial,
    const std::function<void(size_t shard, SimTime window_end)>& drain);

}  // namespace sb::sim
