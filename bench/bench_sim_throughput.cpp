// Experiment E10 (paper §V.E): VisibleSim "mixes a discrete-event core
// simulator with discrete-time functionalities ... simulations with 2
// millions of nodes at a rate of 650k events/sec on a simple laptop".
//
// Two workloads drive the simulator core:
//   - flood: a message-flood over a strip of modules (deliveries dominate,
//     the same event mix the algorithm produces) at rising module counts;
//   - tower: the full distributed algorithm on the Lemma-1 tower family
//     (tower16-class scenarios), run through the runner/ sweep harness.
//
// The paper's absolute figure is hardware-specific; the reproduction target
// is the *shape*: throughput in the hundreds of thousands of events/sec and
// staying flat as the module count grows (event cost independent of N).
//
// JSON mode feeds the CI perf gate (docs/BENCHMARKS.md):
//   $ ./bench_sim_throughput --json BENCH_sim.json [--repeat 3]
//   $ ./perf_check bench/BENCH_sim.json BENCH_sim.json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "msg/message.hpp"
#include "runner/sweep.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace {

using namespace sb;

struct TokenMsg {
  static constexpr uint8_t kTag = 1;
  static constexpr std::string_view kName = "Token";
  static constexpr uint8_t kWireBytes = sizeof(uint32_t);
  uint32_t remaining = 0;
};

/// Forwards tokens along the row, decrementing a hop budget - a pure
/// event-churn workload.
class TokenModule final : public sim::Module {
 public:
  explicit TokenModule(lat::BlockId id) : Module(id) {}
  void on_message(lat::Direction from,
                  const msg::Message& message) override {
    TokenMsg token = message.unpack<TokenMsg>();
    if (token.remaining == 0) return;
    token.remaining -= 1;
    // Bounce off the row ends.
    const lat::Direction forward = opposite(from);
    if (neighbor_table().neighbor(forward).valid()) {
      send(forward, token);
    } else {
      send(from, token);
    }
  }
};

class SeedEvent final : public sim::Event {
 public:
  SeedEvent(lat::BlockId target, uint32_t hops)
      : target_(target), hops_(hops) {}
  [[nodiscard]] std::string_view kind() const override { return "Seed"; }
  void execute(sim::Simulator& sim) override {
    auto* module = sim.find_module(target_);
    if (module == nullptr) return;
    sim.send_from(*module, lat::Direction::kEast, TokenMsg{hops_});
  }

 private:
  lat::BlockId target_;
  uint32_t hops_;
};

struct FloodMeasurement {
  uint64_t events = 0;
  double seconds = 0.0;
  [[nodiscard]] double rate() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

/// Builds a W-wide strip of modules (rows of 1024) and floods it with
/// tokens.
FloodMeasurement run_flood(size_t module_count, uint64_t target_events) {
  const auto width = static_cast<int32_t>(std::min<size_t>(
      module_count, 1024));
  const auto height =
      static_cast<int32_t>((module_count + 1023) / 1024);
  sim::World world(width, std::max<int32_t>(height, 1),
                   motion::RuleLibrary::standard());
  sim::SimConfig config;
  uint32_t id = 1;
  for (size_t i = 0; i < module_count; ++i) {
    const lat::Vec2 pos{static_cast<int32_t>(i % 1024),
                        static_cast<int32_t>(i / 1024)};
    world.grid().place(lat::BlockId{id}, pos);
    ++id;
  }
  sim::Simulator sim(std::move(world), config);
  for (uint32_t m = 1; m < id; ++m) {
    sim.add_module<TokenModule>(lat::BlockId{m});
  }
  // One token per 64 modules, each with a large hop budget.
  const uint32_t tokens =
      std::max<uint32_t>(1, static_cast<uint32_t>(module_count / 64));
  for (uint32_t t = 0; t < tokens; ++t) {
    const uint32_t target = std::min<uint32_t>(
        t * 64 + 1, static_cast<uint32_t>(module_count));
    sim.schedule(
        0, std::make_unique<SeedEvent>(lat::BlockId{target}, UINT32_MAX));
  }
  const auto start = std::chrono::steady_clock::now();
  sim.run({target_events, sim::kTimeMax});
  const auto end = std::chrono::steady_clock::now();
  FloodMeasurement m;
  m.events = sim.stats().events_processed;
  m.seconds = std::chrono::duration<double>(end - start).count();
  return m;
}

void report_table() {
  std::printf("\n=== E10: simulator throughput (paper: 650k events/s, 2M "
              "modules on a 2013 laptop) ===\n");
  std::printf("%12s %18s\n", "modules", "events/second");
  double smallest = 0;
  double largest = 0;
  for (const size_t n : {1024u, 16384u, 131072u, 1048576u}) {
    const double rate = run_flood(n, 2'000'000).rate();
    std::printf("%12zu %18.0f\n", n, rate);
    if (n == 1024u) smallest = rate;
    largest = rate;
  }
  std::printf("throughput ratio (1M modules vs 1k): %.2fx\n",
              largest / smallest);
  std::printf(
      "verdict: %s (hundreds of thousands of events/s at the 10^6-module "
      "scale;\n  per-event cost is an O(1) queue step + cache effects, "
      "matching the paper's 650k/s magnitude)\n",
      largest > 100'000 ? "REPRODUCED" : "DIVERGES");
}

/// Emits the BENCH_sim.json report the CI perf gate consumes. Group order
/// is algorithm first, floods last: the flood worlds allocate hundreds of
/// megabytes and measurably depress whatever runs after them, so the
/// gated full-algorithm numbers are taken on a clean heap (the same state
/// a real sweep sees).
///
///   - tower16/tower64: the full distributed algorithm (run to completion)
///     through the sweep harness;
///   - blob10000/blob100000/blob1000000: giant random blobs, capped at
///     kGiantEventBudget events per run (a full reconfiguration at these
///     sizes is O(N^2) hops — the bench measures event throughput, not
///     completion). Inside the cap the runs are mostly election traffic:
///     blob100000 makes ~540 connectivity-oracle probes per run and
///     blob1000000 none. The 10^6 group is the paper's §V.E scale:
///     throughput must hold flat across the 10^4 -> 10^6 decades;
///   - blob10000000 (only with --giant): one decade past the paper, a
///     10^7-module blob on a ~5000^2 surface. Too heavy for routine CI
///     runners, so the group is opt-in and listed in perf_check --optional;
///   - blob100000 / shards<S> (S in 1,2,4,8): the shard-count scaling
///     group — the same giant blob on the sharded engine with S column
///     stripes and min(S, hardware) shard threads (docs/BENCHMARKS.md
///     "Shard scaling");
///   - flood-*: the raw event core.
int report_json(const std::string& path, int repeat, bool include_giant) {
  runner::BenchReport report("bench_sim_throughput");
  constexpr uint64_t kMasterSeed = 0x5eedULL;
  constexpr uint64_t kGiantEventBudget = 1'500'000;
  report.set_master_seed(kMasterSeed);
  report.set_threads(1);
  report.set_cores(std::max<size_t>(1, std::thread::hardware_concurrency()));

  runner::SweepGrid grid;
  grid.master_seed = kMasterSeed;
  grid.seed_count = static_cast<size_t>(repeat);
  grid.scenarios.push_back({"tower16", lat::make_tower_scenario(8)});
  grid.scenarios.push_back({"tower64", lat::make_tower_scenario(32)});
  runner::SweepRunner::Options options;
  options.threads = 1;  // throughput rows must not contend with each other
  options.master_seed = kMasterSeed;
  options.generator = "bench_sim_throughput";
  const runner::SweepResult sweep =
      runner::SweepRunner(options).run_grid(grid);
  for (const runner::SweepRun& run : sweep.runs) {
    report.add_row(run.row);
  }

  runner::SweepGrid giant;
  giant.master_seed = kMasterSeed;
  giant.seed_count = static_cast<size_t>(repeat);
  for (const int32_t blocks : {10'000, 100'000, 1'000'000}) {
    giant.scenarios.push_back(
        {fmt("blob{}", blocks),
         lat::make_giant_blob_scenario(blocks, kMasterSeed)});
  }
  if (include_giant) {
    giant.scenarios.push_back(
        {"blob10000000",
         lat::make_giant_blob_scenario(10'000'000, kMasterSeed)});
  }
  core::SessionConfig capped;
  capped.max_events = kGiantEventBudget;
  giant.configs.push_back({"standard", capped});
  const runner::SweepResult giant_sweep =
      runner::SweepRunner(options).run_grid(giant);
  for (const runner::SweepRun& run : giant_sweep.runs) {
    report.add_row(run.row);
  }

  // Shard-count scaling on the largest blob: rulesets shards1..shards8 so
  // each point is its own gated summary group. Shard threads scale with the
  // shard count but never oversubscribe the machine — the committed
  // baseline stays comparable across runner core counts (the gate is
  // one-sided, so extra cores only add headroom).
  runner::SweepGrid scaling;
  scaling.master_seed = kMasterSeed;
  scaling.seed_count = static_cast<size_t>(repeat);
  scaling.scenarios.push_back(
      {"blob100000", lat::make_giant_blob_scenario(100'000, kMasterSeed)});
  const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    core::SessionConfig config;
    config.max_events = kGiantEventBudget;
    config.sim.shards = shards;
    config.sim.shard_threads = std::min<size_t>(shards, cores);
    scaling.configs.push_back({fmt("shards{}", shards), config});
  }
  const runner::SweepResult scaling_sweep =
      runner::SweepRunner(options).run_grid(scaling);
  for (const runner::SweepRun& run : scaling_sweep.runs) {
    report.add_row(run.row);
  }

  for (const size_t n : {1024u, 16384u, 131072u}) {
    for (int rep = 0; rep < repeat; ++rep) {
      const FloodMeasurement m = run_flood(n, 1'500'000);
      runner::RunRow row;
      row.scenario = "flood-" + std::to_string(n);
      row.ruleset = "standard";
      row.seed = kMasterSeed;
      row.complete = true;
      row.block_count = n;
      row.events = m.events;
      row.events_per_sec = m.rate();
      row.wall_seconds = m.seconds;
      report.add_row(row);
    }
  }

  report.write_file(path);
  std::printf("wrote %s (%zu runs, %zu summary groups)\n", path.c_str(),
              report.rows().size(), report.summarize().size());
  for (const auto& group : report.summarize()) {
    std::printf("%-14s mean %12.0f events/s over %zu runs (conn fast-path "
                "%.4f)\n",
                group.scenario.c_str(), group.events_per_sec.mean(),
                group.runs, group.conn_fast_rate.mean());
  }
  return 0;
}

void BM_EventChurn(benchmark::State& state) {
  const auto modules = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    const double rate = run_flood(modules, 500'000).rate();
    state.counters["events/s"] =
        benchmark::Counter(rate, benchmark::Counter::kAvgThreads);
  }
}
BENCHMARK(BM_EventChurn)->Arg(1024)->Arg(65536)->Unit(
    benchmark::kMillisecond);

/// One pop plus one push per iteration at a steady pending depth, each
/// popped record re-scheduled 1-8 ticks later (uniform(1,8) links) — the
/// replay bench_e2e times as sim.queue_push_pop_ns. Depths 15 and 96000
/// are the pending-event peaks of tower128 to convergence and of one
/// Algorithm-1 epoch on blob100000. sim::EventQueue is the simulator's
/// queue; sim::BinaryHeapEventQueue is the reference heap.
template <typename Queue>
void BM_QueuePushPop(benchmark::State& state) {
  const auto depth = static_cast<uint64_t>(state.range(0));
  Queue queue;
  Rng rng(depth);
  for (uint64_t i = 0; i < depth; ++i) {
    queue.push(sim::EventRecord::timer(rng.next_below(8), lat::BlockId{1}, i));
  }
  for (auto _ : state) {
    sim::EventRecord record = queue.pop();
    benchmark::DoNotOptimize(record.seq);
    record.time += 1 + rng.next_below(8);
    queue.push(std::move(record));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_QueuePushPop, sim::EventQueue)->Arg(15)->Arg(96'000);
BENCHMARK_TEMPLATE(BM_QueuePushPop, sim::BinaryHeapEventQueue)
    ->Arg(15)
    ->Arg(96'000);

/// lat::validate on a valid scenario, which runs every rule. Scenario set-up
/// pays it twice: once in the generator, once in the session constructor.
void BM_ValidateScenario(benchmark::State& state, const char* name) {
  const lat::Scenario scenario = lat::resolve_scenario(name);
  for (auto _ : state) {
    const std::vector<std::string> issues = lat::validate(scenario);
    benchmark::DoNotOptimize(issues.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scenario.block_count()));
}
BENCHMARK_CAPTURE(BM_ValidateScenario, tower128, "tower128")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ValidateScenario, blob100000, "blob100000")
    ->Unit(benchmark::kMillisecond);

/// lat::resolve_scenario on a blob name: the generator and its own
/// validate, which every big-world unit pays before its session is built
/// (bench_e2e's lattice.generate_s).
void BM_GenerateBlob(benchmark::State& state, const char* name) {
  size_t blocks = 0;
  for (auto _ : state) {
    const lat::Scenario scenario = lat::resolve_scenario(name);
    blocks = scenario.block_count();
    benchmark::DoNotOptimize(scenario.blocks.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(blocks));
}
BENCHMARK_CAPTURE(BM_GenerateBlob, blob10000, "blob10000")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GenerateBlob, blob100000, "blob100000")
    ->Unit(benchmark::kMillisecond);

/// core::ReconfigurationSession's constructor on a blob generated once:
/// validation, placement, the simulator's shards and one program per block
/// (bench_e2e's core.session_build_s without the generator, over many warm
/// builds). Each teardown runs untimed, but its effect on the heap is what
/// the next build meets, as in a sweep of big sessions.
void BM_SessionBuild(benchmark::State& state, const char* name) {
  const lat::Scenario scenario = lat::resolve_scenario(name);
  for (auto _ : state) {
    auto session = std::make_unique<core::ReconfigurationSession>(
        scenario, core::SessionConfig{});
    benchmark::DoNotOptimize(session.get());
    state.PauseTiming();
    session.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scenario.block_count()));
}
BENCHMARK_CAPTURE(BM_SessionBuild, blob100000, "blob100000")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // --json <path> switches to the machine-readable mode consumed by CI;
  // parsed before Google Benchmark sees the arguments. --giant adds the
  // event-capped 10^7-module group (minutes of wall clock and gigabytes of
  // resident surface — opt-in).
  std::string json_path;
  int repeat = 3;
  bool giant = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--giant") == 0) {
      giant = true;
    }
  }
  if (!json_path.empty()) return report_json(json_path, repeat, giant);

  report_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
