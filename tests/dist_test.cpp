// Tests for the distributed sweep backend (src/dist + the runner merge and
// wire-serialization layers it is built on): protocol round trips,
// at-most-once result merging, and end-to-end coordinator/worker fleets —
// including a worker killed mid-sweep and a per-unit timeout with a late
// duplicate result. The acceptance bar throughout is byte-identity: the
// merged report must equal the local thread-pool backend's report for the
// same grid, whatever the fleet does.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "dist/worker.hpp"
#include "runner/cli_options.hpp"
#include "runner/merge.hpp"
#include "runner/serialize.hpp"
#include "runner/sweep.hpp"

namespace sb::dist {
namespace {

// ---------------------------------------------------------------------------
// Wire serialization (runner/serialize)
// ---------------------------------------------------------------------------

/// Every field away from its default, each to a different value, so a
/// decoder that reads one field into another fails the round trip.
runner::RunRow sample_row(uint64_t salt) {
  runner::RunRow row;
  row.scenario = "tower16";
  row.ruleset = "uniform";
  row.seed = 0xdeadbeefcafef00dULL ^ salt;  // full 64-bit value
  row.complete = true;
  row.events = (1ULL << 53) + 12345 + salt;  // beyond double's exact range
  row.events_per_sec = 123456.789012345678;
  row.wall_seconds = 0.0123456789012345678;
  row.hops = 62;
  row.elementary_moves = 69;
  row.messages_sent = 4242;
  row.iterations = 17;
  row.sim_ticks = 0xffffffffffffff01ULL;
  row.block_count = 16;
  row.shards = 4;
  row.conn_fast_hits = 999;
  row.conn_slow_floods = 7;
  row.shard_events = {(1ULL << 53) + 3, 5000, 0, 41};
  row.phase_fold_s = 0.001;
  row.phase_integrate_s = 0.002;
  row.phase_decide_s = 0.003;
  row.phase_drain_s = 0.25;
  row.phase_barrier_wait_s = 0.125;
  row.barrier_wait_fraction = 0.3333333333333333;
  row.stop_reason = sim::StopReason::kEventLimit;
  return row;
}

TEST(WireSerialization, RunRowRoundTripsExactly) {
  const runner::RunRow row = sample_row(1);
  // Through JSON text, as on the wire — not just the JsonValue tree.
  const runner::RunRow back = runner::row_from_json(util::parse_json(
      runner::encode_row(row, runner::RowFormat::kWire).dump()));
  EXPECT_EQ(row, back);
}

// A row as builds that wrote `block_count` after `sim_ticks` sent it (wire
// protocol 4): peers and journals decode by key, so a row in that order
// still reads back whole.
TEST(WireSerialization, RowInTheEarlierKeyOrderDecodes) {
  const char* const earlier = R"({
  "scenario": "tower16",
  "ruleset": "uniform",
  "seed": "0xdeadbeefcafef00c",
  "complete": true,
  "events": "0x2000000000303a",
  "events_per_sec": 123456.78901234567,
  "wall_seconds": 0.012345678901234568,
  "hops": "0x3e",
  "elementary_moves": "0x45",
  "messages_sent": "0x1092",
  "iterations": 17,
  "sim_ticks": "0xffffffffffffff01",
  "block_count": 16,
  "shards": 4,
  "conn_fast_hits": "0x3e7",
  "conn_slow_floods": "0x7",
  "shard_events": [
    "0x20000000000003",
    "0x1388",
    "0x0",
    "0x29"
  ],
  "phase_seconds": {
    "fold_s": 0.001,
    "integrate_s": 0.002,
    "decide_s": 0.0030000000000000001,
    "drain_s": 0.25,
    "barrier_wait_s": 0.125
  },
  "barrier_wait_fraction": 0.33333333333333331,
  "stop_reason": 1
})";
  EXPECT_EQ(runner::row_from_json(util::parse_json(earlier)), sample_row(1));
}

TEST(WireSerialization, OptionsRoundTripExactly) {
  runner::SweepCliOptions options;
  options.scenarios = {"tower16", "blob100", "data/scenarios/fig10.surf"};
  options.seed_count = 12;
  options.master_seed = 0xfeedfacefeedfaceULL;
  options.latency = "exponential";
  options.max_events = (1ULL << 60) + 3;
  options.shards = 8;
  options.shard_threads = 2;
  options.threads = 5;
  const runner::SweepCliOptions back = runner::options_from_json(
      util::parse_json(runner::options_to_json(options).dump()));
  EXPECT_EQ(back.scenarios, options.scenarios);
  EXPECT_EQ(back.seed_count, options.seed_count);
  EXPECT_EQ(back.master_seed, options.master_seed);
  EXPECT_EQ(back.latency, options.latency);
  EXPECT_EQ(back.max_events, options.max_events);
  EXPECT_EQ(back.shards, options.shards);
  EXPECT_EQ(back.shard_threads, options.shard_threads);
  EXPECT_EQ(back.threads, options.threads);
}

TEST(WireSerialization, MissingFieldsThrow) {
  EXPECT_THROW(runner::row_from_json(util::parse_json("{}")),
               std::runtime_error);
  EXPECT_THROW(runner::options_from_json(util::parse_json("{}")),
               std::runtime_error);
  // Mistyped field: seed as a number instead of a hex string.
  util::JsonValue bad =
      runner::encode_row(sample_row(2), runner::RowFormat::kWire);
  bad["seed"] = util::JsonValue(5);
  EXPECT_THROW(runner::row_from_json(bad), std::runtime_error);
  // A row without its phase timings: every journal and peer that can send
  // one writes them, so their absence is a malformed row.
  const util::JsonValue full =
      runner::encode_row(sample_row(2), runner::RowFormat::kWire);
  util::JsonValue no_phases = util::JsonValue::object();
  for (const auto& [key, value] : full.as_object()) {
    if (key != "phase_seconds") no_phases[key] = value;
  }
  EXPECT_THROW(runner::row_from_json(no_phases), std::runtime_error);

  // Options that parse_sweep_flags refuses are refused off the wire too
  // (client submit frames and journal job records decode through here),
  // with one error naming the field.
  const auto expect_refused = [](const char* field, util::JsonValue value,
                                 const std::string& named) {
    runner::SweepCliOptions options;
    options.scenarios = {"tower16"};
    util::JsonValue json = runner::options_to_json(options);
    json[field] = std::move(value);
    try {
      (void)runner::options_from_json(json);
      ADD_FAILURE() << "accepted " << field << " = " << json[field].dump();
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(named), std::string::npos)
          << error.what();
    }
  };
  expect_refused("seed_count", util::JsonValue(2.5), "'seed_count'");
  expect_refused("seed_count", util::JsonValue(1e300), "'seed_count'");
  expect_refused("seed_count", util::JsonValue(-1), "'seed_count'");
  expect_refused("seed_count", util::JsonValue(0), "seeds");
  expect_refused("shards", util::JsonValue(0), "shards");
  expect_refused("latency", util::JsonValue("gaussian"), "latency");
  expect_refused("master_seed", util::JsonValue("0x12zz"), "'master_seed'");
}

// ---------------------------------------------------------------------------
// Protocol messages (dist/protocol)
// ---------------------------------------------------------------------------

TEST(Protocol, MessagesRoundTrip) {
  const Message hello =
      decode(encode(Message::hello(1234, Role::kWorker, 16, 64000)));
  EXPECT_EQ(hello.type, MsgType::kHello);
  EXPECT_EQ(hello.worker_pid, 1234u);
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_EQ(hello.role, Role::kWorker);
  EXPECT_EQ(hello.cores, 16u);
  EXPECT_EQ(hello.memory_mb, 64000u);

  runner::SweepCliOptions options;
  options.scenarios = {"tower16"};
  options.seed_count = 3;
  const Message job = decode(encode(Message::job_description(5, options, 3)));
  EXPECT_EQ(job.type, MsgType::kJob);
  EXPECT_EQ(job.job, 5u);
  EXPECT_EQ(job.spec_count, 3u);
  EXPECT_EQ(job.options.scenarios, options.scenarios);

  const Message unit = decode(encode(Message::make_unit(5, {7, 14, 16})));
  EXPECT_EQ(unit.type, MsgType::kUnit);
  EXPECT_EQ(unit.job, 5u);
  EXPECT_EQ(unit.unit, (WorkUnit{7, 14, 16}));

  const Message result = decode(encode(
      Message::result(5, {7, 14, 16}, {sample_row(3), sample_row(4)})));
  EXPECT_EQ(result.type, MsgType::kResult);
  EXPECT_EQ(result.job, 5u);
  EXPECT_EQ(result.unit, (WorkUnit{7, 14, 16}));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0], sample_row(3));
  EXPECT_EQ(result.rows[1], sample_row(4));

  EXPECT_EQ(decode(encode(Message::welcome())).type, MsgType::kWelcome);
  EXPECT_EQ(decode(encode(Message::pull())).type, MsgType::kPull);
  EXPECT_EQ(decode(encode(Message::heartbeat())).type, MsgType::kHeartbeat);
  EXPECT_EQ(decode(encode(Message::stop())).type, MsgType::kStop);
}

TEST(Protocol, ClientVerbsRoundTrip) {
  const Message client =
      decode(encode(Message::hello(42, Role::kClient, 1, 0)));
  EXPECT_EQ(client.role, Role::kClient);

  runner::SweepCliOptions grid;
  grid.scenarios = {"blob100"};
  const Message submit = decode(encode(Message::submit(grid, 4, 8)));
  EXPECT_EQ(submit.type, MsgType::kSubmit);
  EXPECT_EQ(submit.options.scenarios, grid.scenarios);
  EXPECT_EQ(submit.unit_size, 4u);
  EXPECT_EQ(submit.min_cores, 8u);

  const Message submitted = decode(encode(Message::submitted(3, 12)));
  EXPECT_EQ(submitted.type, MsgType::kSubmitted);
  EXPECT_EQ(submitted.job, 3u);
  EXPECT_EQ(submitted.spec_count, 12u);

  EXPECT_EQ(decode(encode(Message::status(3))).job, 3u);
  EXPECT_EQ(decode(encode(Message::job_request(3))).job, 3u);
  EXPECT_EQ(decode(encode(Message::fetch(3))).type, MsgType::kFetch);
  EXPECT_EQ(decode(encode(Message::cancel(3))).type, MsgType::kCancel);

  const Message status =
      decode(encode(Message::job_status(3, JobState::kCancelled, 7, 12)));
  EXPECT_EQ(status.type, MsgType::kJobStatus);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.merged, 7u);
  EXPECT_EQ(status.total, 12u);

  const Message done = decode(encode(Message::job_done(3, JobState::kDone)));
  EXPECT_EQ(done.type, MsgType::kJobDone);
  EXPECT_EQ(done.state, JobState::kDone);
}

TEST(Protocol, RejectsGarbageAndVersionSkew) {
  EXPECT_THROW(decode("not json"), std::runtime_error);
  EXPECT_THROW(decode("{\"type\":\"warp\"}"), std::runtime_error);
  EXPECT_THROW(decode("{\"type\":\"hello\",\"version\":999,\"pid\":1}"),
               std::runtime_error);
  // A v2 peer stripes sharded runs differently and a v3 peer moves a
  // block's events with it across stripes; their rows must not merge.
  for (const int old_version : {2, 3}) {
    Message old_hello = Message::hello(1, Role::kWorker, 4, 1024);
    old_hello.version = old_version;
    try {
      (void)decode(encode(old_hello));
      ADD_FAILURE() << "a version " << old_version << " hello was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("version mismatch"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW(decode("{\"type\":\"unit\",\"job\":0,\"unit\":{\"id\":0,"
                      "\"begin\":5,\"end\":2}}"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// At-most-once merge (runner/merge)
// ---------------------------------------------------------------------------

std::vector<runner::RunRow> rows_for(size_t begin, size_t count) {
  std::vector<runner::RunRow> rows;
  for (size_t i = 0; i < count; ++i) {
    runner::RunRow row = sample_row(begin + i);
    row.hops = begin + i;  // distinguishable payload
    rows.push_back(row);
  }
  return rows;
}

TEST(ResultMerger, MergesOutOfOrderBatches) {
  runner::ResultMerger merger(6);
  using Accept = runner::ResultMerger::Accept;
  EXPECT_EQ(merger.accept(4, rows_for(4, 2)), Accept::kMerged);
  EXPECT_EQ(merger.accept(0, rows_for(0, 2)), Accept::kMerged);
  EXPECT_FALSE(merger.complete());  // partial coverage: [2, 4) missing
  EXPECT_EQ(merger.merged(), 4u);
  EXPECT_EQ(merger.accept(2, rows_for(2, 2)), Accept::kMerged);
  ASSERT_TRUE(merger.complete());
  const std::vector<runner::RunRow> rows = merger.take_rows();
  ASSERT_EQ(rows.size(), 6u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].hops, i);
}

TEST(ResultMerger, DropsDuplicatesKeepingFirst) {
  runner::ResultMerger merger(4);
  using Accept = runner::ResultMerger::Accept;
  EXPECT_EQ(merger.accept(0, rows_for(0, 2)), Accept::kMerged);
  // A late re-execution of the same unit (identical in practice; here
  // different so first-wins is observable).
  std::vector<runner::RunRow> late = rows_for(0, 2);
  late[0].hops = 999;
  EXPECT_EQ(merger.accept(0, late), Accept::kDuplicate);
  EXPECT_EQ(merger.accept(2, rows_for(2, 2)), Accept::kMerged);
  const std::vector<runner::RunRow> rows = merger.take_rows();
  EXPECT_EQ(rows[0].hops, 0u);
}

TEST(ResultMerger, RejectsMalformedBatches) {
  runner::ResultMerger merger(4);
  using Accept = runner::ResultMerger::Accept;
  EXPECT_EQ(merger.accept(0, {}), Accept::kInvalid);         // empty
  EXPECT_EQ(merger.accept(4, rows_for(4, 1)), Accept::kInvalid);  // range
  EXPECT_EQ(merger.accept(3, rows_for(3, 2)), Accept::kInvalid);  // overflow
  EXPECT_EQ(merger.accept(0, rows_for(0, 2)), Accept::kMerged);
  // Half-overlap with a merged batch: all-or-nothing, no partial effects.
  EXPECT_EQ(merger.accept(1, rows_for(1, 2)), Accept::kInvalid);
  EXPECT_FALSE(merger.has(2));
  EXPECT_EQ(merger.accept(2, rows_for(2, 2)), Accept::kMerged);
  EXPECT_TRUE(merger.complete());
}

// ---------------------------------------------------------------------------
// End-to-end fleets (in-process workers over real sockets)
// ---------------------------------------------------------------------------

runner::SweepCliOptions small_grid() {
  runner::SweepCliOptions options;
  options.scenarios = {"tower16"};
  options.seed_count = 6;
  // Randomized latency so every seed takes a genuinely different path —
  // determinism is then a property of the machinery, not of the workload.
  options.latency = "uniform";
  return options;
}

/// The ground truth: the local thread-pool backend on the same grid.
std::string local_report_text(const runner::SweepCliOptions& options) {
  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = options.master_seed;
  const runner::SweepResult result = runner::SweepRunner(ropts).run(
      runner::expand(runner::make_sweep_grid(options)));
  runner::BenchReport report = result.report;
  report.scrub_timing();
  return report.to_json_text();
}

std::string dist_report_text(const runner::SweepCliOptions& options,
                             size_t workers, size_t abandon_after) {
  Coordinator::Options copts;
  copts.total_timeout_ms = 60000;  // CI backstop
  Coordinator coordinator(options, copts);

  std::vector<int> codes(workers, -1);
  const auto launch = [&](size_t i) {
    Worker::Options wopts;
    wopts.port = coordinator.port();
    wopts.heartbeat_ms = 50;
    if (i == 0) wopts.abandon_after_units = abandon_after;
    return std::thread([wopts, i, &codes] { codes[i] = Worker(wopts).run(); });
  };
  // A worker set to die mid-sweep runs alone until it has died: peers
  // racing it for the one-spec units could drain the queue before it
  // pulls the unit it is to abandon, and it would then exit cleanly.
  std::thread fleet([&] {
    size_t first = 0;
    if (abandon_after != SIZE_MAX) {
      launch(0).join();
      first = 1;
    }
    std::vector<std::thread> running;
    for (size_t i = first; i < workers; ++i) running.push_back(launch(i));
    for (std::thread& worker : running) worker.join();
  });
  const std::vector<runner::RunRow> rows = coordinator.run();
  fleet.join();
  for (size_t i = 0; i < workers; ++i) {
    const int expected =
        i == 0 && abandon_after != SIZE_MAX ? Worker::kExitFault
                                            : Worker::kExitOk;
    EXPECT_EQ(codes[i], expected) << "worker " << i;
  }

  runner::SweepRunner::Options ropts;
  ropts.threads = 2;  // same header as the local ground truth
  ropts.master_seed = options.master_seed;
  runner::BenchReport report = runner::assemble_report(ropts, rows);
  report.scrub_timing();
  return report.to_json_text();
}

// The byte-identity tests above prove local and distributed reports agree;
// this one proves the runs being reported on are themselves sound: every
// RunSpec the fleet distributes, executed with the invariant oracle
// attached, finishes without a single violation.
TEST(DistSweep, DistributedWorkloadIsInvariantClean) {
  const runner::SweepCliOptions grid = small_grid();
  for (const runner::RunSpec& spec :
       runner::expand(runner::make_sweep_grid(grid))) {
    core::SessionConfig config = spec.config;
    config.sim.seed = spec.seed;
    core::ReconfigurationSession session(spec.scenario, config);
    check::InvariantOracle oracle;
    oracle.attach(session);
    const core::SessionResult result = session.run();
    oracle.check_now(session.simulator());
    EXPECT_TRUE(result.complete || result.blocked)
        << spec.scenario_label << " seed=" << spec.seed;
    EXPECT_TRUE(oracle.clean())
        << spec.scenario_label << " seed=" << spec.seed << ": "
        << oracle.violations().front();
    EXPECT_GT(oracle.checks_run(), 0u);
  }
}

TEST(DistSweep, SingleWorkerMatchesLocalByteForByte) {
  const runner::SweepCliOptions grid = small_grid();
  EXPECT_EQ(dist_report_text(grid, 1, SIZE_MAX), local_report_text(grid));
}

TEST(DistSweep, ThreeWorkersMatchLocalByteForByte) {
  const runner::SweepCliOptions grid = small_grid();
  EXPECT_EQ(dist_report_text(grid, 3, SIZE_MAX), local_report_text(grid));
}

TEST(DistSweep, WorkerKilledMidSweepStillMatchesLocal) {
  const runner::SweepCliOptions grid = small_grid();
  // Worker 0 completes one unit, then dies holding its second — the
  // coordinator must detect the drop, requeue, and reassign.
  EXPECT_EQ(dist_report_text(grid, 3, 1), local_report_text(grid));
}

TEST(DistSweep, ShardedRunsTravelTheWireIntact) {
  runner::SweepCliOptions grid = small_grid();
  grid.seed_count = 2;
  grid.shards = 2;
  grid.shard_threads = 2;
  EXPECT_EQ(dist_report_text(grid, 2, SIZE_MAX), local_report_text(grid));
}

// A scripted raw-protocol connection: pulls unit 0, then stalls without
// heartbeats past the per-unit deadline. The unit must be reassigned to the
// healthy worker, the stalled connection's late result dropped as a
// duplicate, and the merged report still byte-identical.
TEST(DistSweep, UnitTimeoutReassignsAndLateResultIsDropped) {
  const runner::SweepCliOptions grid = small_grid();

  Coordinator::Options copts;
  copts.unit_timeout_ms = 150;
  copts.tick_ms = 20;
  copts.worker_silence_ms = 20000;  // the stall must not read as death
  copts.total_timeout_ms = 60000;
  Coordinator coordinator(grid, copts);

  Socket stalled = Socket::connect_to("127.0.0.1", coordinator.port());
  std::thread healthy;  // started only once the stalled conn holds unit 0

  std::thread script([&] {
    stalled.send_frame(encode(Message::hello(1, Role::kWorker, 1, 0)));
    RecvResult welcome = stalled.recv_frame(10000);
    ASSERT_EQ(welcome.status, RecvStatus::kFrame);
    ASSERT_EQ(decode(welcome.payload).type, MsgType::kWelcome);
    stalled.send_frame(encode(Message::pull()));
    RecvResult assigned = stalled.recv_frame(10000);
    ASSERT_EQ(assigned.status, RecvStatus::kFrame);
    const Message unit = decode(assigned.payload);
    ASSERT_EQ(unit.type, MsgType::kUnit);
    EXPECT_EQ(unit.unit.begin, 0u);

    // Now that unit 0 is held here, let the healthy worker race ahead.
    Worker::Options wopts;
    wopts.port = coordinator.port();
    wopts.heartbeat_ms = 50;
    healthy = std::thread([wopts] { EXPECT_EQ(Worker(wopts).run(), 0); });

    // Stall well past the unit deadline, then report anyway: the unit was
    // reassigned meanwhile, so this must land as a dropped duplicate.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const runner::RunSpec spec =
        runner::expand(runner::make_sweep_grid(grid)).at(0);
    stalled.send_frame(encode(Message::result(
        unit.job, unit.unit, {runner::execute_run(spec).row})));
    stalled.send_frame(encode(Message::pull()));
    // Drain frames until stop (heartbeat-free, so only unit/stop arrive).
    for (;;) {
      RecvResult next = stalled.recv_frame(10000);
      ASSERT_EQ(next.status, RecvStatus::kFrame);
      const Message message = decode(next.payload);
      if (message.type == MsgType::kStop) break;
      // Units re-pulled after the late duplicate: execute them honestly so
      // the sweep still finishes if the race handed us real work.
      ASSERT_EQ(message.type, MsgType::kUnit);
      std::vector<runner::RunRow> rows;
      const auto specs = runner::expand(runner::make_sweep_grid(grid));
      for (size_t i = message.unit.begin; i < message.unit.end; ++i) {
        rows.push_back(runner::execute_run(specs.at(i)).row);
      }
      stalled.send_frame(
          encode(Message::result(message.job, message.unit, rows)));
      stalled.send_frame(encode(Message::pull()));
    }
    stalled.close();
  });

  const std::vector<runner::RunRow> rows = coordinator.run();
  script.join();
  if (healthy.joinable()) healthy.join();

  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = grid.master_seed;
  runner::BenchReport report = runner::assemble_report(ropts, rows);
  report.scrub_timing();
  EXPECT_EQ(report.to_json_text(), local_report_text(grid));
}

// A worker that wedges mid-unit but keeps heartbeating can neither be
// declared dead (silence) nor finish: its unit must be reassigned via the
// per-unit timeout, and after the sweep completes the coordinator must cut
// the straggler off at the stop linger instead of serving its heartbeats
// forever — run() has to return even though the connection never closes.
TEST(DistSweep, HeartbeatingWedgedWorkerCannotHoldUpCompletion) {
  const runner::SweepCliOptions grid = small_grid();

  Coordinator::Options copts;
  copts.unit_timeout_ms = 150;
  copts.tick_ms = 20;
  copts.worker_silence_ms = 20000;
  copts.stop_linger_ms = 200;
  copts.total_timeout_ms = 60000;
  Coordinator coordinator(grid, copts);

  Socket wedged = Socket::connect_to("127.0.0.1", coordinator.port());
  std::atomic<bool> quit{false};
  std::thread healthy;
  std::thread script([&] {
    wedged.send_frame(encode(Message::hello(2, Role::kWorker, 1, 0)));
    // welcome
    ASSERT_EQ(wedged.recv_frame(10000).status, RecvStatus::kFrame);
    wedged.send_frame(encode(Message::pull()));
    const RecvResult assigned = wedged.recv_frame(10000);
    ASSERT_EQ(assigned.status, RecvStatus::kFrame);
    ASSERT_EQ(decode(assigned.payload).type, MsgType::kUnit);

    Worker::Options wopts;
    wopts.port = coordinator.port();
    wopts.heartbeat_ms = 50;
    healthy = std::thread([wopts] { EXPECT_EQ(Worker(wopts).run(), 0); });

    // Wedge: never report, never close, heartbeat forever.
    while (!quit.load()) {
      try {
        wedged.send_frame(encode(Message::heartbeat()));
      } catch (const std::exception&) {
        break;  // coordinator cut us off — expected
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  const std::vector<runner::RunRow> rows = coordinator.run();
  quit.store(true);
  script.join();
  if (healthy.joinable()) healthy.join();
  wedged.close();

  runner::SweepRunner::Options ropts;
  ropts.threads = 2;
  ropts.master_seed = grid.master_seed;
  runner::BenchReport report = runner::assemble_report(ropts, rows);
  report.scrub_timing();
  EXPECT_EQ(report.to_json_text(), local_report_text(grid));
}

}  // namespace
}  // namespace sb::dist
