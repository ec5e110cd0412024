#include "sim/shard.hpp"

#include <chrono>
#include <string>

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace sb::sim {

namespace {

uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardEngine::ShardEngine(size_t threads, size_t shards)
    : threads_(threads < 1 ? 1 : threads),
      shards_(shards),
      barrier_(static_cast<uint32_t>(threads_)) {
  SB_EXPECTS(shards_ >= threads_, "ShardEngine wants a shard per worker");
  worker_obs_ = std::vector<WorkerObs>(threads_);
  workers_.reserve(threads_ - 1);
  for (size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardEngine::~ShardEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardEngine::run(const Hooks& hooks) {
  stop_ = false;
  hooks_ = &hooks;
  if (workers_.empty()) {
    round_loop(0);
    hooks_ = nullptr;
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SB_ASSERT(active_ == 0, "ShardEngine::run re-entered");
    active_ = workers_.size();
    ++generation_;
  }
  cv_start_.notify_all();
  round_loop(0);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return active_ == 0; });
  hooks_ = nullptr;
}

PhaseBreakdown ShardEngine::phase_totals() const {
  // ns fields sum over workers (they measure disjoint worker time); the
  // window count is the same round count on every worker, so take one.
  PhaseBreakdown total;
  for (const WorkerObs& obs : worker_obs_) {
    total.fold_ns += obs.phases.fold_ns;
    total.integrate_ns += obs.phases.integrate_ns;
    total.decide_ns += obs.phases.decide_ns;
    total.drain_ns += obs.phases.drain_ns;
    total.barrier_wait_ns += obs.phases.barrier_wait_ns;
  }
  total.windows = worker_obs_.empty() ? 0 : worker_obs_[0].phases.windows;
  return total;
}

void ShardEngine::reset_observability() {
  for (WorkerObs& obs : worker_obs_) obs.phases = PhaseBreakdown{};
}

void ShardEngine::round_loop(size_t worker) {
  const Hooks& hooks = *hooks_;
  WorkerObs& wobs = worker_obs_[worker];
  obs::TraceWriter& tracer = obs::TraceWriter::instance();
  // Latched per run(): flipping tracing mid-run would emit unmatched span
  // edges.
  const bool tracing = tracer.enabled();
  if (tracing) {
    tracer.set_thread_name("shard-worker-" + std::to_string(worker));
  }
  for (;;) {
    if (tracing) tracer.begin("window", "sim");
    // Fold the previous window (a no-op on the bootstrap round), then let
    // every worker integrate its own shards' channels in parallel.
    uint64_t serial_ns = 0;
    const uint64_t fold_enter = mono_ns();
    if (tracing) tracer.begin("fold", "sim");
    barrier_.arrive([&] {
      const uint64_t serial_start = mono_ns();
      if (tracing) tracer.begin("fold_serial", "sim");
      hooks.fold();
      if (tracing) tracer.end("fold_serial", "sim");
      serial_ns = mono_ns() - serial_start;
    });
    if (tracing) tracer.end("fold", "sim");
    const uint64_t fold_exit = mono_ns();
    wobs.phases.fold_ns += serial_ns;
    wobs.phases.barrier_wait_ns += (fold_exit - fold_enter) - serial_ns;

    if (tracing) tracer.begin("integrate", "sim");
    for (size_t s = worker; s < shards_; s += threads_) {
      if (tracing) {
        obs::TraceSpan span("integrate_shard", "sim", {{"shard", s}});
        hooks.integrate(s);
      } else {
        hooks.integrate(s);
      }
    }
    if (tracing) tracer.end("integrate", "sim");
    const uint64_t integrate_exit = mono_ns();
    wobs.phases.integrate_ns += integrate_exit - fold_exit;

    // Decide serially: apply due sequential events, pick the next horizon
    // or stop. The barrier's release edge publishes window_end_/stop_.
    serial_ns = 0;
    if (tracing) tracer.begin("decide", "sim");
    barrier_.arrive([&] {
      const uint64_t serial_start = mono_ns();
      if (tracing) tracer.begin("decide_serial", "sim");
      stop_ = !hooks.decide(&window_end_);
      if (tracing) tracer.end("decide_serial", "sim");
      serial_ns = mono_ns() - serial_start;
    });
    if (tracing) tracer.end("decide", "sim");
    const uint64_t decide_exit = mono_ns();
    wobs.phases.decide_ns += serial_ns;
    wobs.phases.barrier_wait_ns += (decide_exit - integrate_exit) - serial_ns;

    if (stop_) {
      if (tracing) tracer.end("window", "sim");
      return;
    }
    if (tracing) tracer.begin("drain", "sim");
    for (size_t s = worker; s < shards_; s += threads_) {
      if (tracing) {
        obs::TraceSpan span("drain_shard", "sim", {{"shard", s}});
        hooks.drain(s, window_end_);
      } else {
        hooks.drain(s, window_end_);
      }
    }
    if (tracing) tracer.end("drain", "sim");
    const uint64_t drain_exit = mono_ns();
    wobs.phases.drain_ns += drain_exit - decide_exit;
    wobs.phases.windows += 1;
    if (tracing) tracer.end("window", "sim");
  }
}

void ShardEngine::worker_main(size_t worker) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    round_loop(worker);
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last = --active_ == 0;
    }
    if (last) cv_done_.notify_one();
  }
}

}  // namespace sb::sim
