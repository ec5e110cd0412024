#pragma once
// Wire protocol of the distributed sweep service.
//
// Coordinator, workers, and clients exchange JSON messages inside the
// length-prefixed frames of dist/socket.hpp. Workers pull work; clients
// queue and collect jobs. Version 2 turned the single-grid backend into a
// job-queue service: every unit/result carries the job it belongs to,
// hello announces a role plus the machine's cores/memory (heterogeneous
// dispatch), and clients speak submit/status/fetch/cancel.
//
//   worker                          coordinator
//   ------                          -----------
//   hello{v, role=worker, cores}  ->
//                                 <- welcome{}
//   pull{}                        ->
//                                 <- unit{job, id, begin, end} | stop{}
//   job_request{job}              ->                  (first unit of a job)
//                                 <- job{job, options, spec_count}
//   heartbeat{}                   ->                  (while executing)
//   result{job, unit, rows}       ->
//
//   client                          coordinator
//   ------                          -----------
//   hello{v, role=client}         ->
//                                 <- welcome{}
//   submit{options, unit_size,
//          min_cores}             ->
//                                 <- submitted{job, spec_count}
//   status{job}                   ->
//                                 <- job_status{job, state, merged, total}
//   fetch{job}                    ->
//                                 <- result{job, unit, rows}...   (streamed
//                                    incrementally as units merge)
//                                 <- job_done{job, state}
//   cancel{job}                   ->
//                                 <- job_status{job, cancelled, ...}
//   metrics{}                     ->
//                                 <- metrics_report{metrics}   (service-wide
//                                    queue/worker/journal metrics snapshot)
//
// The job message carries the runner::SweepCliOptions grid description; the
// worker re-materializes the identical RunSpec list locally (seed forking is
// index-keyed), so only option structs and result rows ever cross the wire —
// never scenarios or traces. Unknown message types and version mismatches
// are protocol errors (encode/decode throw std::runtime_error).

#include <cstdint>
#include <string>
#include <vector>

#include "runner/cli_options.hpp"
#include "runner/report.hpp"
#include "util/json.hpp"

namespace sb::dist {

/// Bumped on any incompatible message or semantics change; hello carries it
/// and the coordinator refuses mismatched peers. 2 = job-queue service
/// (job-tagged units, roles, client verbs); 3 = sharded runs stripe at
/// equal block count, so a sharded unit's rows differ from a v2 worker's;
/// 4 = a sharded block's events stay on the shard it registered on, so a
/// sharded unit's rows differ from a v3 worker's.
inline constexpr int kProtocolVersion = 4;

enum class MsgType {
  kHello,
  kWelcome,
  kJob,
  kJobRequest,
  kPull,
  kUnit,
  kResult,
  kHeartbeat,
  kStop,
  kSubmit,
  kSubmitted,
  kStatus,
  kJobStatus,
  kFetch,
  kJobDone,
  kCancel,
  kMetrics,
  kMetricsReport,
};

[[nodiscard]] std::string_view to_string(MsgType type);

/// What a connection is for; carried in hello. Workers pull units; clients
/// queue jobs and are exempt from the worker silence deadline (a client
/// waiting on a long fetch legitimately sends nothing).
enum class Role { kWorker, kClient };

/// Lifecycle of a queued job.
enum class JobState { kRunning, kDone, kCancelled };

[[nodiscard]] std::string_view to_string(JobState state);

/// One contiguous slice [begin, end) of a job's expanded spec list. `id` is
/// the unit's index in that job's partition — with the job id, the key of
/// the at-most-once result merge.
struct WorkUnit {
  size_t id = 0;
  size_t begin = 0;
  size_t end = 0;

  [[nodiscard]] size_t size() const { return end - begin; }
  bool operator==(const WorkUnit&) const = default;
};

/// A decoded protocol message (tagged union kept flat for simplicity; only
/// the fields of the active `type` are meaningful).
struct Message {
  MsgType type = MsgType::kPull;
  // kHello
  int version = kProtocolVersion;
  uint64_t worker_pid = 0;
  Role role = Role::kWorker;
  size_t cores = 1;
  uint64_t memory_mb = 0;
  // kJob / kSubmit
  runner::SweepCliOptions options;
  size_t spec_count = 0;  // also kSubmitted
  // kSubmit
  size_t unit_size = 1;
  size_t min_cores = 0;
  // kJob / kJobRequest / kUnit / kResult / kSubmitted / kStatus /
  // kJobStatus / kFetch / kJobDone / kCancel
  uint64_t job = 0;
  // kUnit / kResult
  WorkUnit unit;
  // kResult
  std::vector<runner::RunRow> rows;
  // kJobStatus / kJobDone
  JobState state = JobState::kRunning;
  size_t merged = 0;
  size_t total = 0;
  // kMetricsReport: the coordinator's service metrics snapshot (queue
  // depth, in-flight units, per-worker listing — dist/coordinator.cpp
  // builds it, docs/OBSERVABILITY.md documents the shape). Carried as an
  // opaque JSON object so the wire schema can grow without protocol bumps.
  util::JsonValue metrics;

  [[nodiscard]] static Message hello(uint64_t pid, Role role, size_t cores,
                                     uint64_t memory_mb);
  [[nodiscard]] static Message welcome();
  [[nodiscard]] static Message job_description(
      uint64_t job, runner::SweepCliOptions options, size_t spec_count);
  [[nodiscard]] static Message job_request(uint64_t job);
  [[nodiscard]] static Message pull();
  [[nodiscard]] static Message make_unit(uint64_t job, WorkUnit unit);
  [[nodiscard]] static Message result(uint64_t job, WorkUnit unit,
                                      std::vector<runner::RunRow> rows);
  [[nodiscard]] static Message heartbeat();
  [[nodiscard]] static Message stop();
  [[nodiscard]] static Message submit(runner::SweepCliOptions options,
                                      size_t unit_size, size_t min_cores);
  [[nodiscard]] static Message submitted(uint64_t job, size_t spec_count);
  [[nodiscard]] static Message status(uint64_t job);
  [[nodiscard]] static Message job_status(uint64_t job, JobState state,
                                          size_t merged, size_t total);
  [[nodiscard]] static Message fetch(uint64_t job);
  [[nodiscard]] static Message job_done(uint64_t job, JobState state);
  [[nodiscard]] static Message cancel(uint64_t job);
  [[nodiscard]] static Message metrics_request();
  [[nodiscard]] static Message metrics_report(util::JsonValue metrics);
};

/// Serializes to the JSON frame payload.
[[nodiscard]] std::string encode(const Message& message);

/// Parses a frame payload. Throws std::runtime_error on malformed JSON,
/// unknown types, missing fields, or a version other than kProtocolVersion
/// in a hello.
[[nodiscard]] Message decode(const std::string& payload);

}  // namespace sb::dist
