#include "sim/shard.hpp"

#include <chrono>
#include <string>

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace sb::sim {

uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PhaseBreakdown run_rounds(
    size_t threads, size_t shards,
    const std::function<bool(SimTime* window_end)>& serial,
    const std::function<void(size_t shard, SimTime window_end)>& drain) {
  SB_EXPECTS(threads >= 1 && threads <= shards,
             "run_rounds wants between one worker and one per shard (",
             threads, " workers, ", shards, " shards)");
  WindowBarrier barrier(static_cast<uint32_t>(threads));
  // Written only inside the serial section; every worker reads them after
  // the barrier's release edge.
  SimTime window_end = 0;
  bool stop = false;
  // Each worker's totals, written once when its loop ends and read after
  // the helpers are joined.
  std::vector<PhaseBreakdown> worker_phases(threads);
  // Latched per call: flipping tracing mid-run would emit unmatched span
  // edges.
  obs::TraceWriter& tracer = obs::TraceWriter::instance();
  const bool tracing = tracer.enabled();

  const auto worker_loop = [&](size_t worker) {
    if (tracing) {
      tracer.set_thread_name("shard-worker-" + std::to_string(worker));
    }
    PhaseBreakdown phases;
    for (;;) {
      if (tracing) {
        tracer.begin("window", "sim");
        tracer.begin("rendezvous", "sim");
      }
      uint64_t serial_ns = 0;
      const uint64_t arrive = mono_ns();
      barrier.arrive([&] {
        const uint64_t serial_start = mono_ns();
        stop = !serial(&window_end);
        serial_ns = mono_ns() - serial_start;
      });
      const uint64_t released = mono_ns();
      if (tracing) tracer.end("rendezvous", "sim");
      phases.barrier_wait_ns += (released - arrive) - serial_ns;
      if (stop) {
        if (tracing) tracer.end("window", "sim");
        break;
      }
      if (tracing) tracer.begin("drain", "sim");
      for (size_t s = worker; s < shards; s += threads) {
        if (tracing) {
          const obs::TraceSpan span("drain_shard", "sim", {{"shard", s}});
          drain(s, window_end);
        } else {
          drain(s, window_end);
        }
      }
      if (tracing) tracer.end("drain", "sim");
      phases.drain_ns += mono_ns() - released;
      phases.windows += 1;
      if (tracing) tracer.end("window", "sim");
    }
    worker_phases[worker] = phases;
  };

  // An exception out of a round ends the program: the other workers wait
  // at the barrier for the thrower, so there is no round to unwind to.
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (size_t w = 1; w < threads; ++w) helpers.emplace_back(worker_loop, w);
  worker_loop(0);
  for (std::thread& helper : helpers) helper.join();

  // Time sums over workers (they measure disjoint worker time); every
  // worker drains the same windows, so take one worker's count.
  PhaseBreakdown total;
  for (const PhaseBreakdown& phases : worker_phases) {
    total.drain_ns += phases.drain_ns;
    total.barrier_wait_ns += phases.barrier_wait_ns;
  }
  total.windows = worker_phases[0].windows;
  return total;
}

}  // namespace sb::sim
