// Resilience suite for the distributed sweep service: the write-ahead
// result journal, coordinator kill + `sweep --resume`, worker reconnect
// with in-flight result redelivery, the job-queue client verbs, and the
// clean-failure satellites (occupied bind port, dead coordinator host).
//
// The acceptance bar is the same byte-identity contract as dist_test.cpp:
// whatever the chaos schedule does to the fleet, the merged timing-scrubbed
// BENCH_sim.json must equal the local thread-pool backend's, and no
// completed work may re-execute after a resume beyond the single batch a
// crash can tear.
//
// Subprocess cases drive the real ./sweep and ./sweep_worker binaries
// (SMARTBLOCKS_BIN_DIR) so the chaos kill takes out a whole process, exactly
// as in the CI dist-chaos job; in-process cases script faults through
// SB_DIST_CHAOS + chaos::reset_for_tests().

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/chaos.hpp"
#include "dist/client.hpp"
#include "dist/coordinator.hpp"
#include "dist/journal.hpp"
#include "dist/socket.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "runner/cli_options.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"

namespace sb::dist {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() /
          fmt("sb-resilience-{}-{}", ::getpid(), name))
      .string();
}

/// Removes the paths on scope exit so failed runs don't pollute /tmp.
struct TempFiles {
  std::vector<std::string> paths;
  std::string make(const std::string& name) {
    paths.push_back(temp_path(name));
    return paths.back();
  }
  ~TempFiles() {
    for (const std::string& path : paths) {
      std::error_code ignored;
      fs::remove(path, ignored);
    }
  }
};

/// Sets SB_DIST_CHAOS for the current process and re-arms the parsed state;
/// restores a clean (unset) environment on destruction.
struct ChaosGuard {
  explicit ChaosGuard(const char* spec) {
    ::setenv("SB_DIST_CHAOS", spec, 1);
    chaos::reset_for_tests();
  }
  ~ChaosGuard() {
    ::unsetenv("SB_DIST_CHAOS");
    chaos::reset_for_tests();
  }
};

/// Runs a shell command; returns its exit code (128+signal when killed).
int run_tool(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status < 0) return 127;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 127;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

runner::RunRow sample_row(uint64_t salt) {
  runner::RunRow row;
  row.scenario = "tower16";
  row.ruleset = "uniform";
  row.seed = 0xdeadbeefcafef00dULL ^ salt;
  row.complete = true;
  row.events = (1ULL << 53) + salt;  // beyond double's exact integer range
  row.events_per_sec = 123456.789012345678;
  row.wall_seconds = 0.0123456789012345678;
  row.hops = salt;
  row.sim_ticks = 0xffffffffffffff01ULL;
  row.block_count = 16;
  row.shards = 2;
  row.shard_events = {(1ULL << 53) + 1, salt};
  row.phase_drain_s = 0.25;
  row.barrier_wait_fraction = 0.125;
  row.stop_reason = sim::StopReason::kHalted;
  return row;
}

std::vector<runner::RunRow> rows_for(size_t begin, size_t count) {
  std::vector<runner::RunRow> rows;
  for (size_t i = 0; i < count; ++i) rows.push_back(sample_row(begin + i));
  return rows;
}

runner::SweepCliOptions small_grid(size_t seeds = 6) {
  runner::SweepCliOptions options;
  options.scenarios = {"tower16"};
  options.seed_count = seeds;
  options.latency = "uniform";  // every seed takes a different path
  return options;
}

std::string report_text(const runner::SweepCliOptions& options,
                        const std::vector<runner::RunRow>& rows) {
  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = options.master_seed;
  runner::BenchReport report = runner::assemble_report(ropts, rows);
  report.scrub_timing();
  return report.to_json_text();
}

std::string local_report_text(const runner::SweepCliOptions& options) {
  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = options.master_seed;
  runner::BenchReport report =
      runner::SweepRunner(ropts)
          .run(runner::expand(runner::make_sweep_grid(options)))
          .report;
  report.scrub_timing();
  return report.to_json_text();
}

// ---------------------------------------------------------------------------
// Journal (dist/journal)
// ---------------------------------------------------------------------------

TEST(Journal, RecordsRoundTrip) {
  TempFiles tmp;
  const std::string path = tmp.make("roundtrip.journal");
  {
    JournalWriter writer =
        JournalWriter::create(path, {"0.0.0.0", 4242});
    JournalJob job;
    job.job = 3;
    job.options = small_grid(6);
    job.spec_count = 6;
    job.unit_size = 2;
    job.min_cores = 4;
    writer.record_job(job);
    writer.record_batch(3, {1, 2, 4}, rows_for(2, 2));
    writer.record_cancel(3);
  }
  const JournalContents contents = read_journal(path);
  EXPECT_EQ(contents.header.bind_address, "0.0.0.0");
  EXPECT_EQ(contents.header.port, 4242);
  ASSERT_EQ(contents.jobs.size(), 1u);
  EXPECT_EQ(contents.jobs[0].job, 3u);
  EXPECT_EQ(contents.jobs[0].options.scenarios,
            std::vector<std::string>{"tower16"});
  EXPECT_EQ(contents.jobs[0].options.latency, "uniform");
  EXPECT_EQ(contents.jobs[0].spec_count, 6u);
  EXPECT_EQ(contents.jobs[0].unit_size, 2u);
  EXPECT_EQ(contents.jobs[0].min_cores, 4u);
  ASSERT_EQ(contents.batches.size(), 1u);
  EXPECT_EQ(contents.batches[0].job, 3u);
  EXPECT_EQ(contents.batches[0].unit, (WorkUnit{1, 2, 4}));
  // Bit-exact round trips — the byte-identity of resumed reports rests on
  // these (runner/serialize is exercised in depth by dist_test.cpp).
  EXPECT_EQ(contents.batches[0].rows, rows_for(2, 2));
  EXPECT_EQ(contents.cancelled_jobs, std::vector<uint64_t>{3});
}

TEST(Journal, TornFinalLineIsDropped) {
  TempFiles tmp;
  const std::string path = tmp.make("torn.journal");
  {
    JournalWriter writer = JournalWriter::create(path, {});
    JournalJob job;
    job.job = 0;
    job.options = small_grid(4);
    job.spec_count = 4;
    writer.record_job(job);
    writer.record_batch(0, {0, 0, 2}, rows_for(0, 2));
    writer.record_batch(0, {1, 2, 4}, rows_for(2, 2));
  }
  // A crash mid-write tears at most the final line: truncate the file to
  // cut the last record in half.
  const uintmax_t full = fs::file_size(path);
  fs::resize_file(path, full - 40);
  const JournalContents torn = read_journal(path);
  ASSERT_EQ(torn.batches.size(), 1u);
  EXPECT_EQ(torn.batches[0].unit, (WorkUnit{0, 0, 2}));

  // An unterminated-but-parseable tail is equally untrusted: without the
  // '\n' commit marker the write may not have been the whole record.
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"record": "cancel", "job": 0})";  // no newline
  }
  EXPECT_TRUE(read_journal(path).cancelled_jobs.empty());
}

TEST(Journal, MidFileCorruptionThrows) {
  TempFiles tmp;
  const std::string path = tmp.make("corrupt.journal");
  {
    JournalWriter writer = JournalWriter::create(path, {});
    JournalJob job;
    job.job = 0;
    job.options = small_grid(4);
    job.spec_count = 4;
    writer.record_job(job);
  }
  std::string text = read_file(path);
  {
    std::ofstream out(path, std::ios::trunc);
    const size_t newline = text.find('\n');
    // Garbage between the header and the job record: not a torn tail, so
    // the reader must refuse the file instead of resuming from half a
    // story.
    out << text.substr(0, newline + 1) << "!garbage!\n"
        << text.substr(newline + 1);
  }
  EXPECT_THROW(read_journal(path), std::runtime_error);
}

TEST(Journal, MissingFileOrHeaderThrows) {
  TempFiles tmp;
  EXPECT_THROW(read_journal(temp_path("nonexistent.journal")),
               std::runtime_error);
  const std::string path = tmp.make("headerless.journal");
  {
    std::ofstream out(path);
    out << R"({"record": "cancel", "job": 0})" << "\n";
  }
  EXPECT_THROW(read_journal(path), std::runtime_error);
  // A journal written before sharded runs striped at equal block count
  // (v1), or before a sharded block kept its registration shard (v2), holds
  // rows this build would not reproduce: refuse it, do not resume.
  for (const std::string format :
       {"sb-dist-journal-v1", "sb-dist-journal-v2"}) {
    const std::string old_format = tmp.make(format + ".journal");
    {
      std::ofstream out(old_format);
      out << R"({"record": "header", "format": ")" << format << R"(", )"
          << R"("bind": "127.0.0.1", "port": 0})" << "\n";
      out << R"({"record": "cancel", "job": 0})" << "\n";
    }
    try {
      (void)read_journal(old_format);
      ADD_FAILURE() << "a " << format << " journal was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(format), std::string::npos)
          << error.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Coordinator kill + resume (subprocess, via the real binaries)
// ---------------------------------------------------------------------------

TEST(Resilience, CoordinatorKilledMidSweepResumesByteIdentical) {
  TempFiles tmp;
  const std::string journal = tmp.make("kill.journal");
  const std::string dist_json = tmp.make("kill-dist.json");
  const std::string local_json = tmp.make("kill-local.json");
  const std::string grid_flags =
      "--scenario tower16 --seeds 8 --latency uniform";

  // Phase 1: the chaos schedule SIGKILLs the coordinator the instant its
  // 2nd result batch is journaled — workers are mid-flight, acknowledgment
  // unsent. The spawned fleet gets a reconnect window wide enough to
  // survive until phase 2 rebinds the journaled port.
  const int killed = run_tool(fmt(
      "SB_DIST_CHAOS='coord.merge@2:kill' {}/sweep {} --backend dist "
      "--workers 2 --worker-reconnect-ms 15000 --journal {} --json {} "
      "--scrub-timing >/dev/null 2>&1",
      SMARTBLOCKS_BIN_DIR, grid_flags, journal, dist_json));
  EXPECT_EQ(killed, 137);
  EXPECT_EQ(read_journal(journal).batches.size(), 2u)
      << "exactly the acknowledged work survives the crash";

  // Phase 2: resume. The journaled grid and port are authoritative — no
  // grid flags here. The orphaned phase-1 workers reconnect alongside the
  // fresh fleet and their redelivered duplicates must be dropped.
  const int resumed = run_tool(
      fmt("{}/sweep --resume {} --workers 2 --json {} --scrub-timing "
          ">/dev/null 2>&1",
          SMARTBLOCKS_BIN_DIR, journal, dist_json));
  ASSERT_EQ(resumed, 0);

  const int local = run_tool(
      fmt("{}/sweep {} --json {} --scrub-timing >/dev/null 2>&1",
          SMARTBLOCKS_BIN_DIR, grid_flags, local_json));
  ASSERT_EQ(local, 0);
  EXPECT_EQ(read_file(dist_json), read_file(local_json))
      << "a killed-and-resumed sweep must be indistinguishable from an "
         "uninterrupted one";
}

// ---------------------------------------------------------------------------
// Worker reconnect + redelivery (in-process, scripted chaos)
// ---------------------------------------------------------------------------

TEST(Resilience, WorkerRedeliversInFlightResultAfterPartialFrame) {
  // The sole worker tears its connection mid-frame while sending its 2nd
  // result (the coordinator reads a truncated frame and abandons the
  // connection), reconnects, and redelivers the kept result. Nothing
  // re-executes: the merged report still byte-matches local.
  ChaosGuard guard("worker.result@2:partial");
  const runner::SweepCliOptions grid = small_grid(6);
  Coordinator::Options copts;
  copts.total_timeout_ms = 60000;
  Coordinator coordinator(grid, copts);

  Worker::Options wopts;
  wopts.port = coordinator.port();
  wopts.heartbeat_ms = 50;
  wopts.reconnect_window_ms = 20000;
  wopts.reconnect_base_ms = 20;
  int code = -1;
  std::thread worker([&] { code = Worker(wopts).run(); });
  const std::vector<runner::RunRow> rows = coordinator.run();
  worker.join();
  EXPECT_EQ(code, Worker::kExitOk);
  EXPECT_EQ(report_text(grid, rows), local_report_text(grid));
}

TEST(Resilience, WorkerWithoutReconnectWindowFailsLoudly) {
  // reconnect_window_ms = 0 keeps the old contract: a vanished coordinator
  // is a hard error, not an infinite retry loop.
  Worker::Options wopts;
  wopts.host = "127.0.0.1";
  wopts.port = 1;  // nothing listens on the reserved tcpmux port
  wopts.connect_timeout_ms = 200;
  EXPECT_THROW((void)Worker(wopts).run(), std::runtime_error);
}

TEST(Resilience, ReconnectGivesUpAfterTheWindow) {
  Worker::Options wopts;
  wopts.host = "127.0.0.1";
  wopts.port = 1;
  wopts.connect_timeout_ms = 100;
  wopts.reconnect_window_ms = 300;
  wopts.reconnect_base_ms = 20;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)Worker(wopts).run(), std::runtime_error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 10000) << "the window must bound the retries";
}

// ---------------------------------------------------------------------------
// Job-queue service (submit / status / fetch / cancel, heterogeneous
// dispatch)
// ---------------------------------------------------------------------------

/// A service-mode coordinator plus its run() thread; shutdown on scope
/// exit keeps gtest failures from deadlocking the suite.
struct Service {
  Coordinator coordinator;
  std::thread runner;
  explicit Service(Coordinator::Options copts = make_options())
      : coordinator(copts),
        runner([this] { (void)coordinator.run(); }) {}
  static Coordinator::Options make_options() {
    Coordinator::Options copts;
    copts.serve = true;
    return copts;
  }
  ~Service() {
    coordinator.shutdown();
    runner.join();
  }
};

TEST(JobQueue, SubmitStatusFetchRoundTrip) {
  Service service;
  Worker::Options wopts;
  wopts.port = service.coordinator.port();
  wopts.heartbeat_ms = 50;
  int code = -1;
  std::thread worker([&] { code = Worker(wopts).run(); });

  const runner::SweepCliOptions grid = small_grid(6);
  Client client({.host = "127.0.0.1", .port = service.coordinator.port()});
  const uint64_t job = client.submit(grid, /*unit_size=*/2);
  EXPECT_GE(job, 1u);
  EXPECT_EQ(client.describe(job).scenarios, grid.scenarios);

  // fetch blocks until done, streaming batches as units merge.
  const std::vector<runner::RunRow> rows = client.fetch(job);
  EXPECT_EQ(report_text(grid, rows), local_report_text(grid));

  const Client::JobStatus status = client.status(job);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.merged, 6u);
  EXPECT_EQ(status.total, 6u);

  service.coordinator.shutdown();  // releases the worker with a stop
  worker.join();
  EXPECT_EQ(code, Worker::kExitOk);
}

TEST(JobQueue, TwoClientsInterleaveAndCancelWorks) {
  Service service;
  Worker::Options wopts;
  wopts.port = service.coordinator.port();
  wopts.heartbeat_ms = 50;
  int code = -1;
  std::thread worker([&] { code = Worker(wopts).run(); });

  Client submitter({.host = "127.0.0.1",
                    .port = service.coordinator.port()});
  Client other({.host = "127.0.0.1", .port = service.coordinator.port()});
  const uint64_t keep = submitter.submit(small_grid(4));
  const uint64_t doomed = other.submit(small_grid(40));
  EXPECT_NE(keep, doomed);

  EXPECT_EQ(other.cancel(doomed).state, JobState::kCancelled);
  EXPECT_EQ(other.cancel(doomed).state, JobState::kCancelled);  // idempotent
  EXPECT_THROW((void)other.fetch(doomed), std::runtime_error);

  // The surviving job, fetched by the *other* client (describe() carries
  // the grid across), still completes and matches local.
  const runner::SweepCliOptions grid = other.describe(keep);
  EXPECT_EQ(report_text(grid, other.fetch(keep)), local_report_text(grid));

  service.coordinator.shutdown();
  worker.join();
  EXPECT_EQ(code, Worker::kExitOk);
}

TEST(JobQueue, MinCoresGatesDispatchToBigWorkers) {
  Service service;
  // A 2-core worker sits idle against a min_cores=8 job...
  Worker::Options small;
  small.port = service.coordinator.port();
  small.heartbeat_ms = 50;
  small.cores = 2;
  int small_code = -1;
  std::thread small_worker([&] { small_code = Worker(small).run(); });

  Client client({.host = "127.0.0.1", .port = service.coordinator.port()});
  const runner::SweepCliOptions grid = small_grid(4);
  const uint64_t job = client.submit(grid, /*unit_size=*/1, /*min_cores=*/8);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const Client::JobStatus starved = client.status(job);
  EXPECT_EQ(starved.state, JobState::kRunning);
  EXPECT_EQ(starved.merged, 0u)
      << "a 2-core worker must never receive min_cores=8 units";

  // ...until an 8-core worker joins the fleet.
  Worker::Options big = small;
  big.cores = 8;
  int big_code = -1;
  std::thread big_worker([&] { big_code = Worker(big).run(); });
  EXPECT_EQ(report_text(grid, client.fetch(job)), local_report_text(grid));

  service.coordinator.shutdown();
  small_worker.join();
  big_worker.join();
  EXPECT_EQ(small_code, Worker::kExitOk);
  EXPECT_EQ(big_code, Worker::kExitOk);
}

TEST(JobQueue, MetricsVerbReportsQueueAndWorkerVitals) {
  obs::service().reset_for_tests();
  Service service;
  Worker::Options wopts;
  wopts.port = service.coordinator.port();
  wopts.heartbeat_ms = 50;
  wopts.cores = 4;
  wopts.memory_mb = 2048;
  int code = -1;
  std::thread worker([&] { code = Worker(wopts).run(); });

  Client client({.host = "127.0.0.1", .port = service.coordinator.port()});
  const runner::SweepCliOptions grid = small_grid(4);
  const uint64_t job = client.submit(grid);
  (void)client.fetch(job);  // drains the queue; every unit dispatched

  const util::JsonValue reply = client.metrics();
  const util::JsonValue* gauges = reply.find_path({"metrics", "gauges"});
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("coord.queue_depth"), nullptr);
  EXPECT_EQ(gauges->find("coord.queue_depth")->as_number(), 0.0);
  ASSERT_NE(gauges->find("coord.in_flight"), nullptr);
  EXPECT_EQ(gauges->find("coord.in_flight")->as_number(), 0.0);
  ASSERT_NE(gauges->find("coord.workers_connected"), nullptr);
  EXPECT_EQ(gauges->find("coord.workers_connected")->as_number(), 1.0);

  const util::JsonValue* counters = reply.find_path({"metrics", "counters"});
  ASSERT_NE(counters, nullptr);
  const util::JsonValue* dispatched =
      counters->find("coord.units_dispatched");
  ASSERT_NE(dispatched, nullptr);
  EXPECT_EQ(util::parse_u64(dispatched->as_string()), 4u);

  // The hello's capability announcement must surface in the listing, and
  // the 50 ms heartbeats must have landed in the gap histogram.
  const util::JsonValue* workers = reply.find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->size(), 1u);
  const util::JsonValue& vitals = workers->as_array()[0];
  EXPECT_EQ(vitals.find("cores")->as_number(), 4.0);
  EXPECT_EQ(vitals.find("memory_mb")->as_number(), 2048.0);
  EXPECT_TRUE(vitals.find("connected")->as_bool());
  EXPECT_EQ(vitals.find("units_dispatched")->as_number(), 4.0);
  EXPECT_EQ(vitals.find("results_merged")->as_number(), 4.0);
  ASSERT_NE(vitals.find("heartbeat_gap_ms"), nullptr);
  ASSERT_NE(vitals.find("heartbeat_gap_p95_ms"), nullptr);

  // The snapshot must rebuild into a Registry (the --metrics-out path) and
  // render Prometheus text naming the queue gauge.
  const obs::Registry registry =
      obs::Registry::from_json(*reply.find("metrics"));
  EXPECT_NE(registry.to_prometheus().find("sb_coord_queue_depth"),
            std::string::npos);

  service.coordinator.shutdown();
  worker.join();
  EXPECT_EQ(code, Worker::kExitOk);
}

// ---------------------------------------------------------------------------
// Clean-failure satellites
// ---------------------------------------------------------------------------

TEST(Satellites, OccupiedBindPortFailsWithOneClearError) {
  TempFiles tmp;
  const Listener squatter("127.0.0.1", 0);

  // In-process: constructing a coordinator on the occupied port throws.
  Coordinator::Options copts;
  copts.port = squatter.port();
  EXPECT_THROW(Coordinator(small_grid(2), copts), std::runtime_error);

  // Tool-level: one clear line on stderr, exit 1 — not an abort.
  const std::string log = tmp.make("bind.log");
  const int code = run_tool(
      fmt("{}/sweep --scenario tower16 --seeds 2 --backend dist --workers 0 "
          "--port {} >{} 2>&1",
          SMARTBLOCKS_BIN_DIR, squatter.port(), log));
  EXPECT_EQ(code, 1);
  const std::string text = read_file(log);
  EXPECT_NE(text.find("cannot bind"), std::string::npos) << text;
}

TEST(Satellites, WorkerAgainstDeadHostFailsLoudly) {
  TempFiles tmp;
  const std::string log = tmp.make("dead.log");
  const int code = run_tool(
      fmt("{}/sweep_worker --connect 127.0.0.1:1 --connect-timeout-ms 200 "
          ">{} 2>&1",
          SMARTBLOCKS_BIN_DIR, log));
  EXPECT_EQ(code, 1);
  const std::string text = read_file(log);
  EXPECT_NE(text.find("cannot connect"), std::string::npos) << text;
}

TEST(Satellites, MalformedChaosSpecFailsLoudly) {
  ChaosGuard guard("coord.merge@oops:kill");
  EXPECT_THROW((void)chaos::hit(chaos::kCoordMerge), std::runtime_error);
}

}  // namespace
}  // namespace sb::dist
