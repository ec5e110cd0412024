// bench_e2e: the end-to-end benchmark of record (README.md).
//
//   bench_e2e --workload tower-converge --seed 1 --seconds 10 --trace 0
//   bench_e2e --workload all --trace 1   # each workload in a fresh process
//   bench_e2e --sets 2                   # repeatability vs BENCHMARK.json
//   bench_e2e --smoke --trace 1          # toy sizes, every check
//
// One workload per process: units (one session, or one whole sweep) run
// back to back, each on inputs forked from --seed, until both --repeats
// units and --seconds have passed. A fixed calibration pass between units
// measures how fast the host runs at that moment; end-to-end timings are
// the units' times at the reference host speed, set-up as the median unit
// and run time as the mean (README.md, "Noise"). Every unit is checked.
// --trace 1 makes it a per-layer run instead: one untraced unit, a traced
// one, kernel replays and a Chrome trace. The last stdout line is one JSON
// object: correct, attempted, failed, and the end-to-end (--trace 0) or
// per-layer (--trace 1) metrics.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "e2e.hpp"
#include "obs/trace.hpp"
#include "runner/sweep.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace sb::e2e {

// -- catalogue, statistics, digests -------------------------------------------

void Metrics::set(std::string_view name, double value) {
  const auto named = [&](const MetricDef& def) { return name == def.name; };
  SB_EXPECTS(std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd), named) ||
                 std::any_of(std::begin(kPerLayer), std::end(kPerLayer), named),
             "metric '", name, "' is not in the catalogue");
  SB_EXPECTS(std::isfinite(value), "metric ", name, " is not finite");
  values_.insert_or_assign(std::string(name), value);
}

double Metrics::get(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  SampleSet samples;
  for (const double v : values) samples.add(v);
  return samples.median();
}

Tail tail(const std::vector<double>& values) {
  if (values.empty()) return {};
  SampleSet samples;
  for (const double v : values) samples.add(v);
  if (values.size() < 20) return {samples.max(), 100.0};
  const double p =
      100.0 * (1.0 - 10.0 / static_cast<double>(values.size()));
  return {samples.percentile(p), p};
}

void Digest::add(uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (word >> (8 * byte)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<uint8_t>(c);
    state_ *= 0x100000001b3ULL;
  }
}

namespace {

// -- options and paths ----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  size_t repeats = 2;
  bool trace = false;
  std::string trace_dir;
  std::string json_path;
  size_t sets = 1;
  bool smoke = false;
  std::string bounds_path;
};

std::string self_exe() {
  char path[4096];
  const ssize_t len = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  path[len] = '\0';
  return path;
}

std::string sibling(const std::string& name) {
  return (std::filesystem::path(self_exe()).parent_path() / name).string();
}

/// Scratch space next to the binary, inside the build tree.
std::string work_dir() {
  const std::string dir = sibling("work");
  std::filesystem::create_directories(dir);
  return dir;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

util::JsonValue read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return util::parse_json(text.str());
}

/// Runs argv[0] with `argv` and waits for it; returns its exit code (128 +
/// signal when killed). The child's stdout goes to our stderr when asked,
/// so tool chatter never lands after our JSON line.
int run_process(const std::vector<std::string>& argv, bool stdout_to_stderr) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(fmt("fork failed: {}", std::strerror(errno)));
  }
  if (pid == 0) {
    if (stdout_to_stderr) ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return 127;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : 127;
}

/// This process's peak resident set in MB: VmHWM, which exec resets
/// (ru_maxrss survives exec and would report whatever forked us).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  double kb = 0.0;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) kb = std::stod(line.substr(6));
  }
  return kb / 1024.0;
}

// -- host speed ---------------------------------------------------------------

/// The calibration pass's time on the four-core box README.md describes,
/// in a quiet minute: the host speed the end-to-end timings are reported
/// at.
constexpr double kCalibrationReferenceSeconds = 0.012;

volatile uint64_t g_calibration_sink = 0;

/// Fixed work that no library code touches, in two parts whose mix was
/// chosen so that the neighbours slow the pass as much as they slow the
/// units (README.md, "Noise"). Two thirds of it is shaped like the
/// workloads' own: a miniature discrete-event simulation of 60 000 events
/// through a binary-heap queue over 512 agents, with a hash-map update and
/// a small heap allocation per event. The rest is eight independent
/// xorshift-multiply lanes: arithmetic with much instruction-level
/// parallelism and no memory traffic, the work a neighbour on the same
/// physical core slows most.
double calibration_pass_seconds() {
  struct Event {
    uint64_t time;
    uint32_t agent;
    uint32_t kind;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : agent > other.agent;
    }
  };
  struct Message {
    uint64_t time;
    uint64_t state;
    uint64_t sink;
    uint32_t kind;
  };
  constexpr uint32_t kAgents = 512;
  const auto start = Clock::now();
  uint64_t lcg = 0x5eed;
  const auto random = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(lcg >> 33);
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<uint32_t, uint32_t> seen;
  std::vector<uint32_t> agents(kAgents, 0);
  std::vector<std::unique_ptr<Message>> inbox;
  for (uint32_t agent = 0; agent < kAgents / 2; ++agent) {
    queue.push({random() % 64U, agent, 0});
  }
  uint64_t sink = 0;
  for (int step = 0; step < 60000; ++step) {
    const Event event = queue.top();
    queue.pop();
    uint32_t& state = agents[event.agent];
    state += event.kind + 1;
    const uint32_t key = event.agent ^ (state & 63U);
    const auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(key, state);
    } else {
      it->second += state;
    }
    inbox.push_back(std::make_unique<Message>(
        Message{event.time, state, sink, event.kind}));
    if (inbox.size() > 32) {
      for (const auto& message : inbox) {
        sink += message->time ^ message->state;
      }
      inbox.clear();
    }
    const uint32_t fan_out = 1 + (state ^ event.kind) % 2;
    for (uint32_t k = 0; k < fan_out && queue.size() < 4096; ++k) {
      const uint64_t time = event.time + 1 + random() % 8;
      const uint32_t agent = (event.agent + random() % 16) % kAgents;
      queue.push({time, agent, (event.kind + k) % 6});
    }
  }
  uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (uint32_t step = 0; step < 840000; ++step) {
    for (uint64_t& lane : lanes) {
      lane ^= lane << 13;
      lane ^= lane >> 7;
      lane ^= lane << 17;
      lane *= 0x9e3779b97f4a7c15ULL;
    }
  }
  for (const uint64_t lane : lanes) sink ^= lane;
  g_calibration_sink = sink + seen.size();
  return seconds_since(start);
}

/// Host speed while unit r ran: the mean of the calibration passes just
/// before and just after it (`passes` holds one more than there are units).
std::vector<double> pass_around_units(const std::vector<double>& passes) {
  std::vector<double> around;
  for (size_t r = 0; r + 1 < passes.size(); ++r) {
    around.push_back((passes[r] + passes[r + 1]) / 2.0);
  }
  return around;
}

/// The median unit at the reference host speed: each unit's time scaled by
/// how much faster or slower than kCalibrationReferenceSeconds the passes
/// around it ran.
double median_at_reference_speed(const std::vector<double>& times,
                                 const std::vector<double>& around) {
  std::vector<double> scaled;
  for (size_t r = 0; r < times.size(); ++r) {
    scaled.push_back(times[r] * kCalibrationReferenceSeconds / around[r]);
  }
  return median(scaled);
}

/// The mean unit at the reference host speed: all units' time over all the
/// passes' time around them. Over ten runs this spread about half as much as
/// the median of per-unit ratios (README.md, "Noise").
double mean_at_reference_speed(const std::vector<double>& times,
                               const std::vector<double>& around) {
  const double host = std::accumulate(times.begin(), times.end(), 0.0);
  const double passes = std::accumulate(around.begin(), around.end(), 0.0);
  return host * kCalibrationReferenceSeconds / passes;
}

// -- one workload -------------------------------------------------------------

struct WorkloadResult {
  std::string workload;
  size_t units = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  uint64_t sim_digest = 0;
  uint64_t report_digest = 0;
  Metrics metrics;
  /// Every unit's host set-up and run time, and every calibration pass
  /// (one before each unit and one after the last).
  std::vector<double> setup_samples;
  std::vector<double> run_samples;
  std::vector<double> calibration_samples;
};

void count_check(WorkloadResult& out, const std::string& what,
                 uint64_t attempted, uint64_t failed,
                 const std::string& failure) {
  out.attempted += attempted;
  out.failed += failed;
  if (failed > 0 && out.failures.size() < 8) {
    out.failures.push_back(what + ": " + failure);
  }
}

void add_run(Digest& digest, uint64_t events, uint64_t messages,
             uint64_t hops, uint64_t sim_ticks) {
  digest.add(events);
  digest.add(messages);
  digest.add(hops);
  digest.add(sim_ticks);
}

/// Per-layer numbers an untraced session leaves behind: the counters the
/// library exposes and the move-listener timestamps.
void record_session_layers(const SessionUnit& unit, Metrics& m) {
  const core::SessionResult& r = unit.result;
  m.set("lattice.conn_fast_hits", static_cast<double>(r.conn_fast_hits));
  m.set("lattice.conn_slow_floods", static_cast<double>(r.conn_slow_floods));
  m.set("lattice.conn_fast_rate", r.conn_fast_rate());
  m.set("core.epochs", r.iterations);
  m.set("core.hops", static_cast<double>(r.hops));
  m.set("core.distance_computations",
        static_cast<double>(r.distance_computations));
  m.set("core.messages_per_epoch",
        r.iterations == 0 ? 0.0
                          : static_cast<double>(r.messages_sent) /
                                static_cast<double>(r.iterations));
  for (const char* kind :
       {"Activate", "Ack", "MoveDone", "Select", "ElectedAck", "SonNotify"}) {
    m.set(std::string("core.msgs.") + kind,
          r.messages_by_kind.count(kind) != 0
              ? static_cast<double>(r.messages_by_kind.at(kind))
              : 0.0);
  }
  const Tail epoch_tail = tail(unit.epoch_ms);
  m.set("core.epoch_ms_p50", median(unit.epoch_ms));
  m.set("core.epoch_ms_tail", epoch_tail.value);
  m.set("core.epoch_ms_tail_pct", epoch_tail.percentile);
  m.set("core.epoch_samples", static_cast<double>(unit.epoch_ms.size()));
  m.set("msg.pool_allocs", static_cast<double>(unit.pool.allocations));
  m.set("msg.pool_hit_rate",
        unit.pool.allocations == 0
            ? 0.0
            : static_cast<double>(unit.pool.free_list_hits) /
                  static_cast<double>(unit.pool.allocations));
  m.set("msg.pool_slabs", static_cast<double>(unit.pool.slabs_created));
  m.set("sim.events", static_cast<double>(r.events_processed));
  m.set("sim.events_per_s",
        static_cast<double>(r.events_processed) / unit.run_s);
  m.set("sim.sim_ticks", static_cast<double>(r.sim_ticks));
  const sim::PhaseBreakdown& phases = r.phases;
  if (r.shards > 1 && phases.windows > 0) {
    const auto windows = static_cast<double>(phases.windows);
    m.set("sim.shard.windows", windows);
    m.set("sim.shard.events_per_window",
          static_cast<double>(r.events_processed) / windows);
    m.set("sim.shard.window_us", unit.run_s * 1e6 / windows);
    m.set("sim.shard.fold_s", static_cast<double>(phases.fold_ns) / 1e9);
    m.set("sim.shard.integrate_s",
          static_cast<double>(phases.integrate_ns) / 1e9);
    m.set("sim.shard.decide_s", static_cast<double>(phases.decide_ns) / 1e9);
    m.set("sim.shard.drain_s", static_cast<double>(phases.drain_ns) / 1e9);
    m.set("sim.shard.barrier_wait_s",
          static_cast<double>(phases.barrier_wait_ns) / 1e9);
    m.set("sim.shard.barrier_wait_frac", phases.barrier_wait_fraction());
    m.set("sim.shard.imbalance",
          runner::make_row("", "", 0, r).shard_imbalance());
  }
}

void record_sweep_layers(const SweepUnit& unit, Metrics& m) {
  std::vector<double> walls;
  double busy = 0.0;
  for (const runner::RunRow& row : unit.rows) {
    walls.push_back(row.wall_seconds);
    busy += row.wall_seconds;
  }
  const Tail wall_tail = tail(walls);
  m.set("runner.run_busy_s", busy);
  m.set("runner.run_s_p50", median(walls));
  m.set("runner.run_s_tail", wall_tail.value);
  m.set("runner.run_s_tail_pct", wall_tail.percentile);
  m.set("runner.pool_efficiency",
        busy / (static_cast<double>(kSweepWorkers) * unit.run_s));
}

/// The sweep's largest scenario as one session on the driver's thread: the
/// sweep workload's core/sim/msg/lattice numbers and replay world.
Workload reference_workload(const Workload& sweep) {
  Workload reference;
  reference.name = sweep.name + " reference";
  reference.scenario = sweep.sweep_scenarios.back();
  return reference;
}

std::string required_spans(const Workload& workload) {
  return workload.kind == WorkloadKind::kSweep
             ? "lattice.generate,core.session_build,core.run,runner.sweep"
             : "lattice.generate,core.session_build,core.run";
}

/// Writes the capture to <trace dir>/<workload>.trace.json and validates it
/// with trace_check twice: the whole file for structure, and the driver's
/// own thread for the layer-boundary spans. (The shard engine's threads
/// open only their own spans, and trace_check's --require-spans asks every
/// span-emitting thread for every name.) A
/// capture that overflowed the writer's buffer has lost span ends, so it is
/// neither written nor checked; serializing its million events would take
/// over a gigabyte. Returns the first failure, or empty.
std::string write_and_check_trace(const Workload& workload,
                                  const Options& opt, Metrics& m) {
  const obs::TraceWriter& tracer = obs::TraceWriter::instance();
  const uint64_t dropped = tracer.dropped();
  m.set("obs.trace_dropped", static_cast<double>(dropped));
  std::filesystem::create_directories(opt.trace_dir);
  const std::string base = opt.trace_dir + "/" + workload.name;
  const std::string path = base + ".trace.json";
  const std::string slice_path = base + ".driver.trace.json";
  std::filesystem::remove(path);
  std::filesystem::remove(slice_path);
  if (dropped > 0) return {};

  const util::JsonValue trace = tracer.to_json();
  const util::JsonValue* events = trace.find("traceEvents");
  m.set("obs.trace_events", static_cast<double>(events->size()));
  write_text(path, trace.dump());

  std::optional<double> driver_tid;
  for (const util::JsonValue& event : events->as_array()) {
    const util::JsonValue* name = event.find_path({"args", "name"});
    if (name != nullptr && name->kind() == util::JsonValue::Kind::kString &&
        name->as_string() == "bench_e2e") {
      driver_tid = event.find("tid")->as_number();
    }
  }
  if (!driver_tid.has_value()) return "the driver's thread is not named";
  util::JsonValue slice = util::JsonValue::object();
  util::JsonValue slice_events = util::JsonValue::array();
  for (const util::JsonValue& event : events->as_array()) {
    if (event.find("tid")->as_number() == *driver_tid) {
      slice_events.push_back(event);
    }
  }
  slice["traceEvents"] = std::move(slice_events);
  write_text(slice_path, slice.dump());

  const std::string checker = sibling("trace_check");
  if (run_process({checker, path}, true) != 0) {
    return "trace_check rejected " + path;
  }
  const std::string spans = required_spans(workload);
  if (run_process({checker, slice_path, "--require-spans", spans}, true) !=
      0) {
    return fmt("trace_check found no {} on the driver's thread", spans);
  }
  return {};
}

void measure_layers(const Workload& workload, const Options& opt,
                    const std::optional<SessionUnit>& first_session,
                    const std::optional<SweepUnit>& first_sweep,
                    WorkloadResult& out) {
  Metrics& m = out.metrics;
  const uint64_t seed0 = runner::derive_run_seed(opt.seed, 0);
  const double replay_seconds = opt.smoke ? 0.002 : 0.05;
  const bool sweep = workload.kind == WorkloadKind::kSweep;
  const Workload reference = sweep ? reference_workload(workload) : workload;

  // Untraced first: per-layer counters and timings.
  if (sweep) {
    const SessionUnit unit = run_session_unit(reference, seed0, {});
    count_check(out, reference.name, 1, unit.failure.empty() ? 0 : 1,
                unit.failure);
    record_session_layers(unit, m);
    m.set("lattice.generate_s", unit.generate_s);
    m.set("core.session_build_s", unit.build_s);
  } else {
    record_session_layers(*first_session, m);
    if (workload.shards > 1) {
      // Same input on the classic engine.
      const SessionUnit classic = run_session_unit(workload, seed0, {});
      count_check(out, "classic reference", 1,
                  classic.failure.empty() ? 0 : 1, classic.failure);
      m.set("sim.shard.speedup", classic.run_s / first_session->run_s);
    }
  }

  // Traced: spans, the tracing overhead on unit 0's input, the queue depth,
  // and the world the kernel replays run on.
  obs::TraceWriter& tracer = obs::TraceWriter::instance();
  tracer.enable();
  tracer.set_thread_name("bench_e2e");
  const UnitOptions traced_options{.shards = sweep ? 1 : workload.shards,
                                   .keep_session = true,
                                   .sample_queue_depth = true};
  std::unique_ptr<core::ReconfigurationSession> world;
  size_t queue_depth = 0;
  if (sweep) {
    const SweepUnit traced = run_sweep_unit(workload, seed0);
    count_check(out, "traced sweep", workload.sweep_runs(),
                traced.failed_rows, traced.failure);
    m.set("obs.trace_overhead", traced.run_s / first_sweep->run_s);
    {
      const obs::TraceSpan span("runner.replay.report", "bench");
      const auto start = Clock::now();
      const std::string text =
          sweep_report(seed0, first_sweep->rows).to_json_text();
      m.set("runner.report_s", seconds_since(start));
    }
    SessionUnit unit = run_session_unit(reference, seed0, traced_options);
    count_check(out, "traced reference", 1, unit.failure.empty() ? 0 : 1,
                unit.failure);
    queue_depth = unit.pending_max;
    world = std::move(unit.session);
  } else {
    SessionUnit traced = run_session_unit(workload, seed0, traced_options);
    count_check(out, "traced unit", 1, traced.failure.empty() ? 0 : 1,
                traced.failure);
    m.set("obs.trace_overhead", traced.run_s / first_session->run_s);
    queue_depth = traced.pending_max;
    world = std::move(traced.session);
  }
  m.set("sim.pending_events_max", static_cast<double>(queue_depth));
  replay_lattice_and_planner(*world, replay_seconds, m);
  world.reset();
  replay_pool(replay_seconds, m);
  replay_queue(queue_depth, replay_seconds, m);
  tracer.disable();

  const std::string failure = write_and_check_trace(workload, opt, m);
  count_check(out, "trace", 1, failure.empty() ? 0 : 1, failure);
}

WorkloadResult measure(const Workload& workload, const Options& opt) {
  WorkloadResult out;
  out.workload = workload.name;
  const bool session = workload.kind == WorkloadKind::kSession;
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<double> total;  // set-up plus run
  std::vector<double> calibration;
  std::vector<double> generate;
  std::vector<double> build;
  // Unit 0's simulated statistics: the same for every run of a seed.
  Digest sim_digest;
  std::optional<SessionUnit> first_session;
  std::optional<SweepUnit> first_sweep;

  // A traced run reports per-layer numbers only; its one untraced unit is
  // the baseline of the per-layer counters and of the tracing overhead.
  const size_t min_units = opt.trace ? 1 : opt.repeats;
  const double seconds = opt.trace ? 0.0 : opt.seconds;
  // Untimed: the first pass faults in the heap pages the later ones reuse.
  (void)calibration_pass_seconds();
  const auto start = Clock::now();
  for (size_t r = 0; r < min_units || seconds_since(start) < seconds; ++r) {
    const uint64_t seed = runner::derive_run_seed(opt.seed, r);
    const std::string what = fmt("unit {}", r);
    calibration.push_back(calibration_pass_seconds());
    if (session) {
      SessionUnit unit =
          run_session_unit(workload, seed, {.shards = workload.shards});
      setup.push_back(unit.generate_s + unit.build_s);
      generate.push_back(unit.generate_s);
      build.push_back(unit.build_s);
      run.push_back(unit.run_s);
      total.push_back(setup.back() + unit.run_s);
      count_check(out, what, 1, unit.failure.empty() ? 0 : 1, unit.failure);
      if (r == 0) {
        const core::SessionResult& result = unit.result;
        add_run(sim_digest, result.events_processed, result.messages_sent,
                result.hops, result.sim_ticks);
        first_session = std::move(unit);
      }
    } else {
      SweepUnit unit = run_sweep_unit(workload, seed);
      setup.push_back(unit.setup_s);
      run.push_back(unit.run_s);
      total.push_back(unit.setup_s + unit.run_s);
      count_check(out, what, workload.sweep_runs(), unit.failed_rows,
                  unit.failure);
      if (r == 0) {
        for (const runner::RunRow& row : unit.rows) {
          add_run(sim_digest, row.events, row.messages_sent, row.hops,
                  row.sim_ticks);
        }
        out.report_digest = unit.report_digest;
        first_sweep = std::move(unit);
      }
    }
  }
  calibration.push_back(calibration_pass_seconds());
  out.units = run.size();
  out.sim_digest = sim_digest.value();

  Metrics& m = out.metrics;
  const std::vector<double> around = pass_around_units(calibration);
  m.set("setup_s", median_at_reference_speed(setup, around));
  m.set("run_s", mean_at_reference_speed(run, around));
  m.set("runs_per_s",
        static_cast<double>(session ? 1 : workload.sweep_runs()) /
            mean_at_reference_speed(total, around));
  out.setup_samples = setup;
  out.run_samples = run;
  out.calibration_samples = calibration;
  m.set("peak_rss_mb", peak_rss_mb());
  if (session) {
    m.set("lattice.generate_s", median(generate));
    m.set("core.session_build_s", median(build));
  } else {
    record_sweep_layers(*first_sweep, m);
  }
  if (opt.trace) measure_layers(workload, opt, first_session, first_sweep, out);
  return out;
}

// -- reporting ----------------------------------------------------------------

double fail_frac(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

void print_result(const WorkloadResult& r, bool per_layer) {
  std::printf("\n== %s: %zu units, %llu checked, %llu failed (fail_frac "
              "%.4g) ==\n",
              r.workload.c_str(), r.units,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              fail_frac(r.attempted, r.failed));
  for (const std::string& failure : r.failures) {
    std::printf("  FAILED %s\n", failure.c_str());
  }
  std::printf("  sim_digest %s\n", util::hex_u64(r.sim_digest).c_str());
  std::printf("  calibration pass %.4g ms median (reference %.4g ms); host "
              "run_s %.6g s median\n",
              median(r.calibration_samples) * 1e3,
              kCalibrationReferenceSeconds * 1e3, median(r.run_samples));
  if (r.report_digest != 0) {
    std::printf("  report_digest %s\n",
                util::hex_u64(r.report_digest).c_str());
  }
  const auto print = [&](const MetricDef& def) {
    std::printf("  %-34s %16.6g %s\n", def.name, r.metrics.get(def.name),
                def.unit);
  };
  for (const MetricDef& def : kEndToEnd) print(def);
  if (!per_layer) return;
  for (const MetricDef& def : kPerLayer) print(def);
}

util::JsonValue metrics_json(const Metrics& metrics, const MetricDef* begin,
                             const MetricDef* end,
                             util::JsonValue into = util::JsonValue::object()) {
  for (const MetricDef* def = begin; def != end; ++def) {
    util::JsonValue metric = util::JsonValue::object();
    metric["value"] = metrics.get(def->name);
    metric["unit"] = def->unit;
    into[def->name] = std::move(metric);
  }
  return into;
}

/// Full record (--json, and the per-workload files of the suite mode).
util::JsonValue result_json(const WorkloadResult& r, const Options& opt) {
  util::JsonValue json = util::JsonValue::object();
  json["workload"] = r.workload;
  json["seed"] = util::hex_u64(opt.seed);
  json["units"] = r.units;
  json["attempted"] = r.attempted;
  json["failed"] = r.failed;
  json["correct"] = r.failed == 0;
  json["fail_frac"] = fail_frac(r.attempted, r.failed);
  util::JsonValue failures = util::JsonValue::array();
  for (const std::string& failure : r.failures) failures.push_back(failure);
  json["failures"] = std::move(failures);
  json["sim_digest"] = util::hex_u64(r.sim_digest);
  json["report_digest"] = util::hex_u64(r.report_digest);
  json["traced"] = opt.trace;
  util::JsonValue metrics =
      metrics_json(r.metrics, std::begin(kEndToEnd), std::end(kEndToEnd));
  if (opt.trace) {
    metrics = metrics_json(r.metrics, std::begin(kPerLayer),
                           std::end(kPerLayer), std::move(metrics));
  }
  json["metrics"] = std::move(metrics);
  util::JsonValue samples = util::JsonValue::object();
  for (const auto& [name, values] :
       {std::pair{"setup_s", &r.setup_samples},
        std::pair{"run_s", &r.run_samples},
        std::pair{"calibration_s", &r.calibration_samples}}) {
    util::JsonValue array = util::JsonValue::array();
    for (const double v : *values) array.push_back(v);
    samples[name] = std::move(array);
  }
  json["samples"] = std::move(samples);
  return json;
}

/// The result line: the end-to-end metrics untraced, the per-layer ones
/// traced.
std::string result_line(const WorkloadResult& r, bool traced) {
  util::JsonValue line = util::JsonValue::object();
  line["correct"] = r.failed == 0;
  line["attempted"] = r.attempted;
  line["failed"] = r.failed;
  line["metrics"] =
      traced ? metrics_json(r.metrics, std::begin(kPerLayer),
                            std::end(kPerLayer))
             : metrics_json(r.metrics, std::begin(kEndToEnd),
                            std::end(kEndToEnd));
  return line.dump();
}

// -- BENCHMARK.json -----------------------------------------------------------

const util::JsonValue& member(const util::JsonValue& object,
                              std::string_view key,
                              util::JsonValue::Kind kind,
                              const std::string& where) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr || value->kind() != kind) {
    throw std::runtime_error(fmt("{}: missing or mistyped '{}'", where, key));
  }
  return *value;
}

/// Reads the end-to-end bounds from BENCHMARK.json after checking that it
/// names exactly this driver's workloads and metrics, with their units.
std::map<std::string, double> load_bounds(const std::string& path) {
  using Kind = util::JsonValue::Kind;
  const util::JsonValue bench = read_json(path);
  const auto names = [&](std::string_view key, const MetricDef* begin,
                         const MetricDef* end) {
    std::set<std::string> expected;
    for (const MetricDef* def = begin; def != end; ++def) {
      expected.insert(fmt("{} [{}]", def->name, def->unit));
    }
    std::set<std::string> found;
    for (const util::JsonValue& metric :
         member(bench, key, Kind::kArray, path).as_array()) {
      found.insert(
          fmt("{} [{}]", member(metric, "name", Kind::kString, path).as_string(),
              member(metric, "unit", Kind::kString, path).as_string()));
    }
    if (found != expected) {
      throw std::runtime_error(
          fmt("{}: '{}' does not list this driver's metrics", path, key));
    }
  };
  names("end_to_end", std::begin(kEndToEnd), std::end(kEndToEnd));
  names("per_layer", std::begin(kPerLayer), std::end(kPerLayer));
  std::set<std::string> workloads;
  for (const util::JsonValue& w :
       member(bench, "workloads", Kind::kArray, path).as_array()) {
    workloads.insert(member(w, "name", Kind::kString, path).as_string());
  }
  std::set<std::string> expected;
  for (const Workload& w : make_workloads(false)) expected.insert(w.name);
  if (workloads != expected) {
    throw std::runtime_error(
        fmt("{}: 'workloads' does not list this driver's workloads", path));
  }
  std::map<std::string, double> bounds;
  for (const util::JsonValue& metric :
       member(bench, "end_to_end", Kind::kArray, path).as_array()) {
    bounds[member(metric, "name", Kind::kString, path).as_string()] =
        member(metric, "bound", Kind::kNumber, path).as_number();
  }
  return bounds;
}

// -- suite: every workload in a fresh process ---------------------------------

/// What the suite reads back from one child's --json record.
struct ChildRecord {
  std::string workload;
  bool ok = false;  ///< exited 0 and reported correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string sim_digest;
  std::map<std::string, double> metrics;
  util::JsonValue json;
};

ChildRecord read_child(const std::string& workload, const std::string& path,
                       int exit_code) {
  using Kind = util::JsonValue::Kind;
  ChildRecord record;
  record.workload = workload;
  try {
    record.json = read_json(path);
    const util::JsonValue& j = record.json;
    record.attempted = static_cast<uint64_t>(
        member(j, "attempted", Kind::kNumber, path).as_number());
    record.failed = static_cast<uint64_t>(
        member(j, "failed", Kind::kNumber, path).as_number());
    record.sim_digest = member(j, "sim_digest", Kind::kString, path).as_string();
    for (const auto& [name, metric] :
         member(j, "metrics", Kind::kObject, path).as_object()) {
      record.metrics[name] =
          member(metric, "value", Kind::kNumber, path).as_number();
    }
    record.ok = exit_code == 0 &&
                member(j, "correct", Kind::kBool, path).as_bool();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", workload.c_str(),
                 error.what());
  }
  return record;
}

void print_summary(size_t set, const std::vector<ChildRecord>& records) {
  std::printf("\n== set %zu summary ==\n%-16s", set + 1, "workload");
  for (const MetricDef& def : kEndToEnd) {
    std::printf(" %14s", fmt("{} [{}]", def.name, def.unit).c_str());
  }
  std::printf(" %10s  %s\n", "fail_frac", "sim_digest");
  for (const ChildRecord& r : records) {
    std::printf("%-16s", r.workload.c_str());
    for (const MetricDef& def : kEndToEnd) {
      const auto it = r.metrics.find(def.name);
      std::printf(" %14.6g", it == r.metrics.end() ? 0.0 : it->second);
    }
    std::printf(" %10.4g  %s%s\n", fail_frac(r.attempted, r.failed),
                r.sim_digest.c_str(), r.ok ? "" : "  FAILED");
  }
}

int run_suite(const Options& opt, const std::vector<Workload>& workloads) {
  std::map<std::string, double> bounds;
  if (opt.sets > 1) {
    bounds = load_bounds(opt.bounds_path.empty() ? "BENCHMARK.json"
                                                 : opt.bounds_path);
  }
  const std::string self = self_exe();
  const std::string work = work_dir();
  bool ok = true;
  std::vector<std::vector<ChildRecord>> sets;
  for (size_t set = 0; set < opt.sets; ++set) {
    // Odd sets run in reverse; records stay in workload order.
    std::vector<ChildRecord> records(workloads.size());
    for (size_t k = 0; k < workloads.size(); ++k) {
      const size_t i = set % 2 == 0 ? k : workloads.size() - 1 - k;
      const Workload& w = workloads[i];
      const std::string json = fmt("{}/suite-{}-{}.json", work, set, w.name);
      std::filesystem::remove(json);
      std::vector<std::string> argv = {
          self,          "--workload", w.name,
          "--seed",      util::hex_u64(opt.seed),
          "--seconds",   fmt("{}", opt.seconds),
          "--repeats",   std::to_string(opt.repeats),
          "--trace",     opt.trace ? "1" : "0",
          "--trace-dir", opt.trace_dir,
          "--json",      json};
      if (opt.smoke) argv.push_back("--smoke");
      std::printf("\n### set %zu: %s\n", set + 1, w.name.c_str());
      records[i] = read_child(w.name, json, run_process(argv, false));
      ok = ok && records[i].ok;
    }
    print_summary(set, records);
    sets.push_back(std::move(records));
  }

  for (size_t set = 1; set < sets.size(); ++set) {
    std::printf("\n== set %zu against set 1 (relative difference vs "
                "BENCHMARK.json bound) ==\n",
                set + 1);
    for (size_t i = 0; i < sets[0].size() && i < sets[set].size(); ++i) {
      const ChildRecord& a = sets[0][i];
      const ChildRecord& b = sets[set][i];
      if (a.sim_digest != b.sim_digest) {
        std::printf("%-16s sim_digest %s vs %s  DIFFER\n", a.workload.c_str(),
                    a.sim_digest.c_str(), b.sim_digest.c_str());
        ok = false;
      }
      for (const MetricDef& def : kEndToEnd) {
        const double before = a.metrics.count(def.name) != 0
                                  ? a.metrics.at(def.name)
                                  : 0.0;
        const double after = b.metrics.count(def.name) != 0
                                 ? b.metrics.at(def.name)
                                 : 0.0;
        const double rel = before != 0.0 ? (after - before) / before : 0.0;
        const double bound = bounds.count(def.name) != 0
                                 ? bounds.at(def.name)
                                 : 0.0;
        const bool agree = std::abs(rel) <= bound;
        std::printf("%-16s %-12s %14.6g %14.6g %+8.2f%%  bound %5.1f%%  %s\n",
                    a.workload.c_str(), def.name, before, after, rel * 100.0,
                    bound * 100.0, agree ? "ok" : "DISAGREE");
        ok = ok && agree;
      }
    }
  }

  if (!opt.json_path.empty()) {
    util::JsonValue out = util::JsonValue::object();
    util::JsonValue all = util::JsonValue::array();
    for (const std::vector<ChildRecord>& records : sets) {
      util::JsonValue set = util::JsonValue::array();
      for (const ChildRecord& r : records) set.push_back(r.json);
      all.push_back(std::move(set));
    }
    out["sets"] = std::move(all);
    write_text(opt.json_path, out.dump(2));
  }
  std::printf("\nbench_e2e: %s\n", ok ? "all checks passed" : "FAILED");
  return ok ? 0 : 1;
}

// -- main ---------------------------------------------------------------------

int bench_main(int argc, char** argv) {
  CliParser cli(
      "bench_e2e: convergence time, sweep throughput and set-up cost on "
      "four workloads (README.md)");
  cli.add_string("workload", "all",
                 "tower-converge | blob-epochs | blob-shard4 | sweep-local "
                 "| all (each in a fresh process)");
  cli.add_string("seed", "1",
                 "input seed (decimal or 0x hex); unit r runs on "
                 "derive_run_seed(seed, r)");
  cli.add_double("seconds", -1.0,
                 "keep running units until this long has passed (default "
                 "30, BENCHMARK.json's run_seconds; 0 with --smoke)");
  cli.add_int("repeats", 0,
              "at least this many units (default 2; 1 with --smoke)");
  cli.add_int("trace", 0,
              "1: per-layer run instead — one untraced unit, a traced "
              "unit, kernel replays and a Chrome trace; the result line "
              "carries the per-layer metrics");
  cli.add_string("trace-dir", "",
                 "where --trace 1 writes traces (default: traces/ next to "
                 "this binary)");
  cli.add_string("json", "", "write the full results to this file");
  cli.add_int("sets", 1,
              "run the suite this many times, reversing the order every "
              "other set, and fail if an end-to-end metric moves by more "
              "than its BENCHMARK.json bound");
  cli.add_bool("smoke", false, "toy sizes of the same four workloads");
  cli.add_string("bounds", "",
                 "BENCHMARK.json: checked against the driver's metric and "
                 "workload names; --sets reads its bounds (default "
                 "./BENCHMARK.json)");
  if (!cli.parse(argc, argv)) return 2;

  Options opt;
  opt.workload = cli.get_string("workload");
  try {
    opt.seed = util::parse_u64(cli.get_string("seed"));
  } catch (const std::exception&) {
    throw std::runtime_error("--seed expects a decimal or 0x hex integer");
  }
  opt.smoke = cli.get_bool("smoke");
  const double seconds = cli.get_double("seconds");
  opt.seconds = seconds >= 0.0 ? seconds : (opt.smoke ? 0.0 : 30.0);
  const int64_t repeats = cli.get_int("repeats");
  if (repeats < 0) throw std::runtime_error("--repeats must be >= 0");
  opt.repeats = repeats > 0 ? static_cast<size_t>(repeats)
                            : (opt.smoke ? 1 : 2);
  const int64_t trace = cli.get_int("trace");
  if (trace != 0 && trace != 1) throw std::runtime_error("--trace is 0 or 1");
  opt.trace = trace == 1;
  opt.trace_dir = cli.get_string("trace-dir");
  if (opt.trace_dir.empty()) opt.trace_dir = sibling("traces");
  opt.json_path = cli.get_string("json");
  const int64_t sets = cli.get_int("sets");
  if (sets < 1) throw std::runtime_error("--sets must be >= 1");
  opt.sets = static_cast<size_t>(sets);
  opt.bounds_path = cli.get_string("bounds");

  // The epoch-capped blobs end every unit at the iteration cap, which the
  // library reports as a warning.
  Log::set_level(LogLevel::kError);

  if (!opt.bounds_path.empty()) (void)load_bounds(opt.bounds_path);
  std::vector<Workload> workloads = make_workloads(opt.smoke);
  if (opt.workload != "all") {
    const auto it = std::find_if(
        workloads.begin(), workloads.end(),
        [&](const Workload& w) { return w.name == opt.workload; });
    if (it == workloads.end()) {
      throw std::runtime_error("unknown --workload '" + opt.workload + "'");
    }
    workloads = {*it};
  }
  if (opt.workload == "all" || opt.sets > 1) return run_suite(opt, workloads);

  const WorkloadResult result = measure(workloads.front(), opt);
  print_result(result, opt.trace);
  if (!opt.json_path.empty()) {
    write_text(opt.json_path, result_json(result, opt).dump(2));
  }
  std::printf("%s\n", result_line(result, opt.trace).c_str());
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sb::e2e

int main(int argc, char** argv) {
  try {
    return sb::e2e::bench_main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 1;
  }
}
