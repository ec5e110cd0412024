// Per-layer replays: single library kernels timed from outside, on the
// world a workload's traced unit ends with (or at the depth its run
// reached). Each replay is one trace span; passes repeat until a minimum
// wall time and the median pass is reported.

#include <functional>

#include "core/messages.hpp"
#include "core/motion_planner.hpp"
#include "e2e.hpp"
#include "lattice/connectivity.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace sb::e2e {

namespace {

/// Median seconds of `pass` over at least three passes and at least
/// `min_seconds` of passes; `prepare` runs untimed before each.
double median_pass_seconds(double min_seconds,
                           const std::function<void()>& prepare,
                           const std::function<void()>& pass) {
  constexpr size_t kMinPasses = 3;
  constexpr size_t kMaxPasses = 10'000;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < kMinPasses ||
         (total < min_seconds && times.size() < kMaxPasses)) {
    if (prepare) prepare();
    const auto start = Clock::now();
    pass();
    times.push_back(seconds_since(start));
    total += times.back();
  }
  return median(times);
}

/// Keeps replay results observable so no pass can be optimized away.
volatile uint64_t g_sink = 0;

}  // namespace

void replay_lattice_and_planner(core::ReconfigurationSession& session,
                                double min_seconds, Metrics& out) {
  sim::World& world = session.simulator().world();
  lat::Grid& grid = world.grid();
  std::vector<lat::Vec2> blocks;
  for (const auto& [id, pos] : world.view().blocks()) blocks.push_back(pos);
  const auto block_count = static_cast<double>(blocks.size());
  uint64_t sink = 0;

  {
    // A fresh planner, so the first pass is cold and the second (nothing
    // moved in between) is served by the memo.
    const obs::TraceSpan span("core.replay.planner_eval", "bench");
    core::PlannerConfig config;
    config.distance.input = session.scenario().input;
    config.distance.output = session.scenario().output;
    const core::MotionPlanner planner(&world.rules(), config);
    const auto pass = [&] {
      const auto start = Clock::now();
      for (const lat::Vec2 pos : blocks) {
        sink += static_cast<uint64_t>(
            planner.evaluate(world, pos, nullptr, 0, nullptr, nullptr)
                .distance);
      }
      return seconds_since(start);
    };
    out.set("core.planner_eval_cold_ns", pass() * 1e9 / block_count);
    const uint64_t hits_cold = planner.cache_hits();
    out.set("core.planner_eval_warm_ns", pass() * 1e9 / block_count);
    out.set("core.planner_memo_hit_rate",
            static_cast<double>(planner.cache_hits() - hits_cold) /
                block_count);
  }

  std::vector<uint8_t> row(static_cast<size_t>(grid.width()) + 64);
  const auto cells = static_cast<double>(grid.cell_count());
  const auto row_kernel = [&](void (*kernel)(const lat::Grid&, int32_t,
                                             uint8_t*)) {
    return [&, kernel] {
      for (int32_t y = 0; y < grid.height(); ++y) {
        kernel(grid, y, row.data());
        sink += row[static_cast<size_t>(y) % row.size()];
      }
    };
  };
  {
    const obs::TraceSpan span("lattice.replay.row_scalar", "bench");
    out.set("lattice.row_scalar_ns_per_cell",
            median_pass_seconds(
                min_seconds, {},
                row_kernel(lat::detail::compute_removal_row_scalar)) *
                1e9 / cells);
  }
  {
    const obs::TraceSpan span("lattice.replay.row_wide", "bench");
    out.set("lattice.row_wide_ns_per_cell",
            median_pass_seconds(
                min_seconds, {},
                row_kernel(lat::detail::compute_removal_row_wide)) *
                1e9 / cells);
  }
  {
    // Re-placing one block bumps the grid version, so every cached verdict
    // row is stale — the state the oracle meets after each move.
    const obs::TraceSpan span("lattice.replay.batch_verdicts", "bench");
    std::vector<uint8_t> verdicts(blocks.size());
    const auto stale = [&] {
      grid.place(grid.remove(blocks.front()), blocks.front());
    };
    const auto pass = [&] {
      lat::batch_removal_verdicts(grid, blocks.data(), blocks.size(),
                                  verdicts.data());
      sink += verdicts.back();
    };
    out.set("lattice.batch_verdict_ns",
            median_pass_seconds(min_seconds, stale, pass) * 1e9 / block_count);
  }
  {
    // Warm verdict rows: the per-probe cost between moves.
    const obs::TraceSpan span("lattice.replay.local_check", "bench");
    const auto pass = [&] {
      for (const lat::Vec2 pos : blocks) {
        sink += lat::local_removal_check(grid, pos) ==
                lat::LocalVerdict::kPreservesConnectivity;
      }
    };
    out.set("lattice.local_check_ns",
            median_pass_seconds(min_seconds, {}, pass) * 1e9 / block_count);
  }
  g_sink = g_sink + sink;
}

void replay_pool(double min_seconds, Metrics& out) {
  const obs::TraceSpan span("msg.replay.alloc_free", "bench");
  constexpr size_t kBatch = 4096;
  const size_t sizes[] = {sizeof(core::ActivateMsg), sizeof(core::AckMsg),
                          sizeof(core::MoveDoneMsg)};
  std::vector<void*> nodes(kBatch);
  const auto pass = [&] {
    for (const size_t bytes : sizes) {
      for (void*& node : nodes) node = util::pool_alloc(bytes);
      for (void* node : nodes) util::pool_free(node, bytes);
    }
  };
  pass();  // the free lists now hold a batch of each size
  out.set("msg.alloc_free_ns", median_pass_seconds(min_seconds, {}, pass) *
                                   1e9 / static_cast<double>(kBatch * 3));
}

void replay_queue(size_t depth, double min_seconds, Metrics& out) {
  const obs::TraceSpan span("sim.replay.queue", "bench");
  constexpr size_t kOps = size_t{1} << 16;
  sim::BinaryHeapEventQueue queue;
  Rng rng(depth);
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    queue.push(sim::EventRecord::timer(rng.next_below(8), lat::BlockId{1}, i));
  }
  const auto pass = [&] {
    for (size_t op = 0; op < kOps; ++op) {
      sim::EventRecord record = queue.pop();
      record.time += 1 + rng.next_below(8);
      queue.push(std::move(record));
    }
  };
  out.set("sim.queue_push_pop_ns",
          median_pass_seconds(min_seconds, {}, pass) * 1e9 /
              static_cast<double>(kOps));
}

}  // namespace sb::e2e
