// Multi-run sweep driver: scenario x seed x rule-set grids with
// machine-readable BENCH_sim.json output, on either the in-process
// thread-pool backend or a multi-process coordinator/worker fleet.
//
//   $ ./sweep --scenario tower16 --seeds 8 --threads 4
//   $ ./sweep data/scenarios/fig10.surf --seeds 4 --json out.json
//   $ ./sweep --scenario blob100000 --shards 8 --max-events 2000000
//   $ ./sweep --scenario tower16,tower64 --backend dist --workers 3
//   $ ./sweep --backend dist --workers 0 --bind 0.0.0.0 --port 7777
//         # then on other machines: ./sweep_worker --connect <host>:7777
//
// Resilience (docs/ARCHITECTURE.md "Distributed sweep backend"):
//
//   $ ./sweep --backend dist --journal sweep.journal ...   # crash-safe
//   $ ./sweep --resume sweep.journal                       # after a crash
//
// Job-queue service — one long-lived fleet, many queued sweeps:
//
//   $ ./sweep --serve --port 7777 --workers 4 --journal queue.journal
//   $ ./sweep --coordinator 127.0.0.1:7777 --submit --scenario tower16
//   $ ./sweep --coordinator 127.0.0.1:7777 --status 1
//   $ ./sweep --coordinator 127.0.0.1:7777 --fetch 1 --json out.json
//   $ ./sweep --coordinator 127.0.0.1:7777 --cancel 1
//
// Scenario names are resolved by lat::resolve_scenario (--list-scenarios
// prints the vocabulary). The two backends produce byte-identical
// BENCH_sim.json for the same grid modulo the wall-clock fields; pass
// --scrub-timing to zero those and make the file a pure function of the
// grid (the CI dist-smoke and dist-chaos jobs diff the backends this way,
// across coordinator kills and worker reconnects).

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/client.hpp"
#include "dist/coordinator.hpp"
#include "dist/journal.hpp"
#include "dist/spawn.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"
#include "util/string_util.hpp"

namespace {

using namespace sb;

volatile std::sig_atomic_t g_shutdown_requested = 0;

void request_shutdown(int) { g_shutdown_requested = 1; }

struct HostPort {
  std::string host;
  uint16_t port = 0;
};

HostPort parse_host_port(const std::string& text, const char* flag) {
  const size_t colon = text.rfind(':');
  if (text.empty() || colon == std::string::npos) {
    throw std::runtime_error(
        fmt("{} expects host:port, e.g. {} 127.0.0.1:7777", flag, flag));
  }
  const auto port = parse_int(text.substr(colon + 1));
  if (!port.has_value() || *port < 1 || *port > 65535) {
    throw std::runtime_error(fmt("{} port must be in [1, 65535], got '{}'",
                                 flag, text.substr(colon + 1)));
  }
  return {text.substr(0, colon), static_cast<uint16_t>(*port)};
}

dist::Coordinator::Options coordinator_options(const CliParser& cli) {
  dist::Coordinator::Options copts;
  copts.bind_address = cli.get_string("bind");
  const int64_t port = cli.get_int("port");
  if (port < 0 || port > 65535) {
    throw std::runtime_error(fmt("--port must be in [0, 65535], got {}",
                                 port));
  }
  copts.port = static_cast<uint16_t>(port);
  const int64_t unit_size = cli.get_int("unit-size");
  if (unit_size < 1) {
    throw std::runtime_error(fmt("--unit-size must be >= 1, got {}",
                                 unit_size));
  }
  copts.unit_size = static_cast<size_t>(unit_size);
  copts.unit_timeout_ms = runner::parse_ms_flag(cli, "unit-timeout-ms", 1);
  copts.journal_path = cli.get_string("journal");
  copts.verbose = cli.get_bool("verbose");
  return copts;
}

/// Spawns the --workers subprocess fleet against `port`. Must run before
/// Coordinator::run starts service threads (fork in a threaded process is
/// not survivable). Workers connect and are queued by the listener backlog
/// until the coordinator starts accepting.
std::vector<dist::WorkerProcess> spawn_fleet(const CliParser& cli,
                                             uint16_t port,
                                             const char* argv0) {
  const int64_t workers = cli.get_int("workers");
  if (workers < 0) {
    throw std::runtime_error(
        fmt("--workers must be >= 0 (0 = serve external sweep_worker "
            "processes only), got {}",
            workers));
  }
  if (workers == 0) return {};
  dist::FleetOptions fopts;
  if (const char* fault = std::getenv(dist::kFleetFaultEnv)) {
    const auto parsed = parse_int(fault);
    if (!parsed.has_value() || *parsed < 0) {
      throw std::runtime_error(
          fmt("{} must be a non-negative unit count, got '{}'",
              dist::kFleetFaultEnv, fault));
    }
    fopts.fault_after_units = static_cast<long>(*parsed);
    std::printf("sweep: fault injection armed — worker 0 dies after %ld "
                "units\n",
                fopts.fault_after_units);
  }
  fopts.reconnect_window_ms =
      runner::parse_ms_flag(cli, "worker-reconnect-ms", 0);
  fopts.verbose = cli.get_bool("verbose");
  return dist::spawn_worker_fleet(dist::default_worker_binary(argv0),
                                  "127.0.0.1", port,
                                  static_cast<size_t>(workers), fopts);
}

void reap_fleet(const std::vector<dist::WorkerProcess>& fleet) {
  for (size_t i = 0; i < fleet.size(); ++i) {
    const int code = dist::reap_worker(fleet[i]);
    if (code == dist::Worker::kExitFault) {
      std::printf("sweep: worker %zu died by fault injection (reassignment "
                  "covered its units)\n",
                  i);
    } else if (code != 0) {
      std::fprintf(stderr, "sweep: worker %zu exited with code %d\n", i,
                   code);
    }
  }
}

/// Runs the grid on the coordinator/worker fleet; returns rows in spec
/// order (byte-identical to what the local backend computes).
std::vector<runner::RunRow> run_dist(const runner::SweepCliOptions& options,
                                     const CliParser& cli,
                                     const char* argv0) {
  dist::Coordinator coordinator(options, coordinator_options(cli));
  std::printf("sweep: %zu runs on %lld dist workers (port %u)\n",
              coordinator.spec_count(),
              static_cast<long long>(cli.get_int("workers")),
              coordinator.port());
  const std::vector<dist::WorkerProcess> fleet =
      spawn_fleet(cli, coordinator.port(), argv0);
  std::vector<runner::RunRow> rows = coordinator.run();
  reap_fleet(fleet);
  return rows;
}

/// Resumes a crashed dist sweep from its journal. The journal pins the
/// primary job's grid (so the rebuilt report is byte-identical to an
/// uninterrupted run) and the coordinator's bind address (so orphaned
/// workers reconnect); `options` is overwritten with the journaled grid.
std::vector<runner::RunRow> resume_dist(const std::string& journal_path,
                                        const CliParser& cli,
                                        const char* argv0,
                                        runner::SweepCliOptions& options) {
  const dist::JournalContents contents = dist::read_journal(journal_path);
  const dist::JournalJob* primary = nullptr;
  for (const dist::JournalJob& job : contents.jobs) {
    if (job.job == 0) primary = &job;
  }
  if (primary == nullptr) {
    throw std::runtime_error(fmt(
        "journal '{}' has no primary sweep (job 0) to resume",
        journal_path));
  }
  options = primary->options;
  dist::Coordinator::Options copts = coordinator_options(cli);
  copts.journal_path = journal_path;  // keep appending to the same file
  dist::Coordinator coordinator(contents, copts);
  std::printf("sweep: resuming %zu-run sweep from %s (%zu batches "
              "journaled, port %u)\n",
              coordinator.spec_count(), journal_path.c_str(),
              contents.batches.size(), coordinator.port());
  const std::vector<dist::WorkerProcess> fleet =
      spawn_fleet(cli, coordinator.port(), argv0);
  std::vector<runner::RunRow> rows = coordinator.run();
  reap_fleet(fleet);
  return rows;
}

/// Long-lived job-queue service: no primary sweep, jobs arrive from
/// `--coordinator ... --submit` clients. SIGINT/SIGTERM wind it down.
int run_serve(const CliParser& cli, const char* argv0) {
  dist::Coordinator::Options copts = coordinator_options(cli);
  copts.serve = true;
  dist::Coordinator coordinator(copts);
  // Flushed immediately: scripts discover the bound port (--port 0) by
  // watching this line, and a pipe- or file-redirected stdout is fully
  // buffered by default.
  std::printf("sweep: serving the sweep job queue on %s:%u\n",
              copts.bind_address.c_str(), coordinator.port());
  std::fflush(stdout);
  const std::vector<dist::WorkerProcess> fleet =
      spawn_fleet(cli, coordinator.port(), argv0);
  std::signal(SIGINT, request_shutdown);
  std::signal(SIGTERM, request_shutdown);
  // The handler only flips a flag (shutdown() takes locks, which are off
  // limits in a signal context); this thread turns the flag into the call.
  std::atomic<bool> finished{false};
  std::thread watcher([&] {
    while (!finished.load()) {
      if (g_shutdown_requested != 0) {
        coordinator.shutdown();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  (void)coordinator.run();
  finished.store(true);
  watcher.join();
  reap_fleet(fleet);
  std::printf("sweep: job queue stopped\n");
  return 0;
}

/// Prints the summary table, writes --json, and derives the exit code —
/// shared by every mode that ends holding a finished report.
int emit_report(runner::BenchReport& report, const CliParser& cli,
                const runner::SweepCliOptions& options) {
  if (cli.get_bool("scrub-timing")) report.scrub_timing();

  std::printf("%-12s %-12s %6s %6s %10s %14s %10s %10s %10s\n", "scenario",
              "ruleset", "shards", "runs", "completed", "events/s mean",
              "hops mean", "moves", "conn fast");
  for (const auto& group : report.summarize()) {
    std::printf("%-12s %-12s %6zu %6zu %10zu %14.0f %10.1f %10.1f %10.4f\n",
                group.scenario.c_str(), group.ruleset.c_str(), group.shards,
                group.runs, group.completed, group.events_per_sec.mean(),
                group.hops.mean(), group.elementary_moves.mean(),
                group.conn_fast_rate.mean());
    if (group.shards < 2) continue;
    // Shard-load diagnostic: a pathological map shows up as a busiest
    // shard far above the mean (imbalance 1.0 = perfectly balanced).
    uint64_t lightest = UINT64_MAX;
    uint64_t busiest = 0;
    for (const runner::RunRow& row : report.rows()) {
      if (row.scenario != group.scenario || row.ruleset != group.ruleset) {
        continue;
      }
      for (const uint64_t events : row.shard_events) {
        lightest = std::min(lightest, events);
        busiest = std::max(busiest, events);
      }
    }
    if (busiest == 0) continue;
    std::printf("  %-10s shard events min %llu max %llu imbalance %.2fx "
                "(busiest/mean)\n",
                "", static_cast<unsigned long long>(lightest),
                static_cast<unsigned long long>(busiest),
                group.shard_imbalance.mean());
  }

  const std::string json_path = cli.get_string("json");
  if (json_path == "-") {
    std::printf("%s", report.to_json_text().c_str());
  } else if (!json_path.empty()) {
    report.write_file(json_path);  // throws a clear error when unwritable
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Exit non-zero when any run failed to complete, so scripted sweeps fail
  // loudly. Runs stopped by an explicit --max-events budget are expected to
  // be incomplete (the giant throughput workloads) and do not fail.
  for (const runner::RunRow& row : report.rows()) {
    if (!row.complete &&
        !(options.max_events > 0 &&
          row.stop_reason == sim::StopReason::kEventLimit)) {
      return 2;
    }
  }
  return 0;
}

/// Scoped trace capture: enables the process-wide TraceWriter when a path
/// was given and serializes the buffer on scope exit — every mode path
/// (local, dist, serve, client) and the exception unwind all pass through
/// the same destructor.
class TraceCapture {
 public:
  explicit TraceCapture(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::TraceWriter::instance().enable();
  }
  ~TraceCapture() {
    if (path_.empty()) return;
    obs::TraceWriter& tracer = obs::TraceWriter::instance();
    tracer.disable();
    if (!tracer.write_file(path_)) {
      std::fprintf(stderr, "sweep: cannot write trace to %s\n",
                   path_.c_str());
      return;
    }
    if (tracer.dropped() != 0) {
      std::fprintf(stderr,
                   "sweep: trace buffer overflowed, %llu events dropped\n",
                   static_cast<unsigned long long>(tracer.dropped()));
    }
    std::printf("wrote %s\n", path_.c_str());
  }
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

 private:
  std::string path_;
};

double metrics_number(const util::JsonValue& metrics, const char* group,
                      const char* name) {
  const util::JsonValue* value = metrics.find_path({group, name});
  if (value == nullptr) return 0.0;
  if (value->kind() == util::JsonValue::Kind::kString) {
    return static_cast<double>(util::parse_u64(value->as_string()));
  }
  return value->as_number();
}

/// Prints the coordinator's live metrics under a --status line: queue and
/// fleet gauges first, then one row per worker the coordinator has seen.
void print_service_metrics(const util::JsonValue& reply) {
  const util::JsonValue* metrics = reply.find("metrics");
  if (metrics == nullptr) return;
  std::printf(
      "  queue depth %.0f  in-flight %.0f  workers %.0f  "
      "reassignments %.0f  dispatched %.0f  merged %.0f\n",
      metrics_number(*metrics, "gauges", "coord.queue_depth"),
      metrics_number(*metrics, "gauges", "coord.in_flight"),
      metrics_number(*metrics, "gauges", "coord.workers_connected"),
      metrics_number(*metrics, "counters", "coord.reassignments"),
      metrics_number(*metrics, "counters", "coord.units_dispatched"),
      metrics_number(*metrics, "counters", "coord.results_merged"));
  const util::JsonValue* workers = reply.find("workers");
  if (workers == nullptr || workers->as_array().empty()) return;
  std::printf("  %-6s %-8s %6s %10s %6s %8s %11s %14s\n", "conn", "pid",
              "cores", "memory_mb", "units", "merged", "hb gap p95",
              "state");
  for (const util::JsonValue& worker : workers->as_array()) {
    const auto number = [&worker](const char* name) {
      const util::JsonValue* value = worker.find(name);
      return value != nullptr ? value->as_number() : 0.0;
    };
    const util::JsonValue* connected = worker.find("connected");
    std::printf("  %-6.0f %-8.0f %6.0f %10.0f %6.0f %8.0f %9.0fms %14s\n",
                number("conn"), number("pid"), number("cores"),
                number("memory_mb"), number("units_dispatched"),
                number("results_merged"), number("heartbeat_gap_p95_ms"),
                connected != nullptr && connected->as_bool()
                    ? "connected"
                    : "disconnected");
  }
}

/// Client verbs against a `--serve` coordinator.
int run_client(const CliParser& cli) {
  const HostPort addr =
      parse_host_port(cli.get_string("coordinator"), "--coordinator");
  dist::Client::Options copts;
  copts.host = addr.host;
  copts.port = addr.port;
  copts.verbose = cli.get_bool("verbose");
  dist::Client client(copts);

  if (cli.get_bool("submit")) {
    const runner::SweepCliOptions grid = runner::parse_sweep_flags(cli);
    const int64_t unit_size = cli.get_int("unit-size");
    const int64_t min_cores = cli.get_int("min-cores");
    if (unit_size < 1 || min_cores < 0) {
      throw std::runtime_error(
          "--unit-size must be >= 1 and --min-cores >= 0");
    }
    const uint64_t job =
        client.submit(grid, static_cast<size_t>(unit_size),
                      static_cast<size_t>(min_cores));
    std::printf("sweep: submitted job %llu\n",
                static_cast<unsigned long long>(job));
    return 0;
  }
  if (const int64_t id = cli.get_int("status"); id >= 0) {
    const dist::Client::JobStatus status =
        client.status(static_cast<uint64_t>(id));
    std::printf("sweep: job %lld %s %zu/%zu\n", static_cast<long long>(id),
                std::string(dist::to_string(status.state)).c_str(),
                status.merged, status.total);
    const util::JsonValue reply = client.metrics();
    print_service_metrics(reply);
    const std::string metrics_path = cli.get_string("metrics-out");
    if (!metrics_path.empty()) {
      const util::JsonValue* registry_json = reply.find("metrics");
      const obs::Registry registry =
          registry_json != nullptr ? obs::Registry::from_json(*registry_json)
                                   : obs::Registry{};
      std::FILE* out = std::fopen(metrics_path.c_str(), "w");
      if (out == nullptr) {
        throw std::runtime_error(
            fmt("cannot write --metrics-out '{}'", metrics_path));
      }
      const std::string text = registry.to_prometheus();
      std::fwrite(text.data(), 1, text.size(), out);
      std::fclose(out);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
    return status.state == dist::JobState::kCancelled ? 3 : 0;
  }
  if (const int64_t id = cli.get_int("cancel"); id >= 0) {
    const dist::Client::JobStatus status =
        client.cancel(static_cast<uint64_t>(id));
    std::printf("sweep: job %lld %s %zu/%zu\n", static_cast<long long>(id),
                std::string(dist::to_string(status.state)).c_str(),
                status.merged, status.total);
    return 0;
  }
  if (const int64_t id = cli.get_int("fetch"); id >= 0) {
    // The journaled/announced grid drives the report header, so a fetched
    // report is byte-identical (modulo timing) to a local run of the same
    // grid even when the fetching client passed no grid flags at all.
    const runner::SweepCliOptions options =
        client.describe(static_cast<uint64_t>(id));
    std::vector<runner::RunRow> rows =
        client.fetch(static_cast<uint64_t>(id));
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.generator = "sweep";
    runner::BenchReport report =
        runner::assemble_report(ropts, std::move(rows));
    return emit_report(report, cli, options);
  }
  throw std::runtime_error(
      "--coordinator needs one of --submit, --status <id>, --fetch <id>, "
      "--cancel <id>");
}

int run_sweep(int argc, char** argv) {
  CliParser cli("parallel scenario/seed/rule-set sweep harness");
  runner::SweepCliOptions defaults;
  defaults.scenarios = {"tower16"};
  runner::add_sweep_flags(cli, defaults);
  cli.add_string("json", "", "write BENCH_sim.json here ('-' = stdout)");
  cli.add_bool("trace", false,
               "capture per-run move traces (printed count; local backend "
               "only)");
  cli.add_bool("list-scenarios", false,
               "print the scenario vocabulary and exit");
  cli.add_bool("scrub-timing", false,
               "zero wall-clock fields in the report so the JSON is a pure "
               "function of the grid (backend-independent byte-for-byte)");
  cli.add_string("backend", "local",
                 "execution backend: local (in-process thread pool) | dist "
                 "(coordinator + worker fleet)");
  cli.add_int("workers", 3,
              "dist: subprocess workers to spawn (0 = only serve external "
              "sweep_worker connections)");
  cli.add_string("bind", "127.0.0.1",
                 "dist: coordinator listen address (0.0.0.0 for remote "
                 "workers)");
  cli.add_int("port", 0, "dist: coordinator listen port (0 = ephemeral)");
  cli.add_int("unit-size", 1, "dist: specs per work unit");
  cli.add_int("unit-timeout-ms", 600000,
              "dist: hard per-unit deadline before an in-flight unit is "
              "also handed to another worker (set above the worst-case "
              "runtime of one unit)");
  cli.add_string("journal", "",
                 "dist: write-ahead result journal — every merged batch is "
                 "fsync'd here before acknowledgment, so a killed "
                 "coordinator can be resumed losslessly");
  cli.add_string("resume", "",
                 "resume a dist sweep from this journal (rebinds the "
                 "journaled port so orphaned workers reconnect; only "
                 "unfinished units re-execute)");
  cli.add_int("worker-reconnect-ms", 0,
              "dist: reconnect window passed to spawned workers so they "
              "survive a coordinator kill + --resume cycle (0 = off)");
  cli.add_bool("serve", false,
               "dist: run as a long-lived job-queue service (no primary "
               "sweep; SIGINT/SIGTERM stops it)");
  cli.add_string("coordinator", "",
                 "client mode: address of a --serve coordinator to talk to");
  cli.add_bool("submit", false,
               "client: queue the grid described by the sweep flags; "
               "prints the job id");
  cli.add_int("status", -1, "client: report a job's state and progress");
  cli.add_int("fetch", -1,
              "client: stream a job's merged rows and emit the report "
              "(blocks until the job completes)");
  cli.add_int("cancel", -1, "client: cancel a running job");
  cli.add_int("min-cores", 0,
              "client --submit: only dispatch to workers announcing at "
              "least this many cores");
  cli.add_string("trace-out", "",
                 "write a Chrome Trace Event Format file (load in Perfetto "
                 "or chrome://tracing) covering this process's shard "
                 "phases and dist milestones");
  cli.add_string("metrics-out", "",
                 "client --status: also write the coordinator's metrics in "
                 "Prometheus text format here");
  cli.add_bool("verbose", false, "dist: fleet chatter on stderr");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_bool("list-scenarios")) {
    std::printf("%s", runner::scenario_vocabulary().c_str());
    return 0;
  }

  const TraceCapture capture(cli.get_string("trace-out"));

  if (!cli.get_string("coordinator").empty()) return run_client(cli);
  if (cli.get_bool("serve")) return run_serve(cli, argv[0]);

  const std::string resume_path = cli.get_string("resume");
  runner::SweepCliOptions options = runner::parse_sweep_flags(cli);
  const std::string backend = cli.get_string("backend");
  if (backend != "local" && backend != "dist") {
    throw std::runtime_error("unknown --backend '" + backend +
                             "' (local | dist)");
  }

  std::vector<runner::SweepRun> runs;  // local backend only (traces)
  runner::BenchReport report{"sweep"};
  if (!resume_path.empty()) {
    // resume_dist replaces `options` with the journaled grid — the report
    // must describe the original sweep, not this process's default flags.
    std::vector<runner::RunRow> rows =
        resume_dist(resume_path, cli, argv[0], options);
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.generator = "sweep";
    report = runner::assemble_report(ropts, std::move(rows));
  } else if (backend == "dist") {
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.generator = "sweep";
    report = runner::assemble_report(ropts, run_dist(options, cli, argv[0]));
  } else {
    runner::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.master_seed = options.master_seed;
    ropts.capture_traces = cli.get_bool("trace");
    ropts.generator = "sweep";
    const runner::SweepGrid grid = runner::make_sweep_grid(options);
    const runner::SweepRunner runner(ropts);
    const std::vector<runner::RunSpec> specs = runner::expand(grid);
    std::printf("sweep: %zu runs on %zu threads\n", specs.size(),
                runner.effective_threads(specs.size()));
    runner::SweepResult result = runner.run(specs);
    report = std::move(result.report);
    runs = std::move(result.runs);
    if (ropts.capture_traces) {
      size_t moves = 0;
      for (const auto& run : runs) moves += run.move_trace.size();
      std::printf("captured %zu move-trace lines\n", moves);
    }
  }
  return emit_report(report, cli, options);
}

}  // namespace

int main(int argc, char** argv) {
  // CLI mistakes (typo'd scenario names, bad seeds, unwritable --json
  // paths, missing files) and service failures (occupied --port, corrupt
  // --resume journals) surface as exceptions; report them as one-line
  // errors instead of aborting.
  try {
    return run_sweep(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep: %s\n", error.what());
    return 1;
  }
}
