#include "dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "dist/chaos.hpp"
#include "dist/protocol.hpp"
#include "dist/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/merge.hpp"
#include "runner/sweep.hpp"
#include "util/fmt.hpp"

namespace sb::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Spec count from the grid dimensions rather than a full expand(): the
/// coordinator never executes a run, and expand() would copy each scenario
/// (up to 10^6 blocks) into every one of its specs just to be counted.
size_t count_specs(const runner::SweepCliOptions& options) {
  const runner::SweepGrid grid = runner::make_sweep_grid(options);
  const size_t seeds =
      grid.seeds.empty() ? grid.seed_count : grid.seeds.size();
  return grid.scenarios.size() * std::max<size_t>(1, grid.configs.size()) *
         seeds;
}

}  // namespace

struct Coordinator::Impl {
  Options options;
  Listener listener;
  JournalWriter journal;

  /// One queued sweep. The primary sweep (when the coordinator was
  /// constructed with grid options) is job 0; client submissions count up
  /// from 1.
  struct Job {
    uint64_t id = 0;
    runner::SweepCliOptions options;
    size_t spec_count = 0;
    size_t unit_size = 1;
    size_t min_cores = 0;
    runner::ResultMerger merger{0};
    std::deque<WorkUnit> pending;
    JobState state = JobState::kRunning;
    /// Units in merge order — the replay source for fetch streaming.
    std::vector<WorkUnit> merge_log;
  };

  // All coordination state lives under one mutex; handler threads are
  // blocked either in recv (their own socket) or on this cv.
  std::mutex mu;
  std::condition_variable cv;
  std::map<uint64_t, Job> jobs;
  struct InFlight {
    uint64_t job = 0;
    WorkUnit unit;
    uint64_t conn_id = 0;
    Clock::time_point deadline;
  };
  std::vector<InFlight> in_flight;
  /// Every worker connection ever seen (disconnected ones stay, flagged,
  /// so --status can show a fleet's history). The heartbeat inter-arrival
  /// histogram is the liveness latency signal: its spread over the worker's
  /// configured heartbeat period is queueing + network delay, and a fat
  /// tail means a stalled or overloaded worker.
  struct WorkerInfo {
    uint64_t conn_id = 0;
    uint64_t pid = 0;
    size_t cores = 1;
    uint64_t memory_mb = 0;
    uint64_t units_dispatched = 0;
    uint64_t results_merged = 0;
    uint64_t heartbeats = 0;
    obs::Histogram heartbeat_gap_ms;
    std::optional<Clock::time_point> last_heartbeat;
    bool connected = true;
  };
  std::vector<WorkerInfo> workers;
  /// Service event counters (reassignments, dispatches, merges); the
  /// `metrics` verb merges a snapshot of obs::service() (journal fsync
  /// latency) into it.
  obs::Registry service_registry;
  bool has_primary = false;
  bool stopping = false;
  uint64_t next_conn_id = 1;
  uint64_t next_job_id = 1;

  std::vector<std::thread> handlers;

  explicit Impl(Options opts)
      : options(opts), listener(opts.bind_address, opts.port) {}

  void log(const std::string& line) const {
    if (options.verbose) {
      std::fprintf(stderr, "sweep dist: %s\n", line.c_str());
    }
  }

  // --- state transitions (callers hold `mu`) ------------------------------

  [[nodiscard]] Job* find_job_locked(uint64_t id) {
    const auto it = jobs.find(id);
    return it == jobs.end() ? nullptr : &it->second;
  }

  [[nodiscard]] WorkerInfo* find_worker_locked(uint64_t conn_id) {
    for (WorkerInfo& worker : workers) {
      if (worker.conn_id == conn_id) return &worker;
    }
    return nullptr;
  }

  /// The unit `job`'s own partition assigns to `id` (units are contiguous
  /// unit_size slices; the last one is short).
  [[nodiscard]] static WorkUnit partition_unit(const Job& job, size_t id) {
    const size_t begin = id * job.unit_size;
    return {id, begin, std::min(job.spec_count, begin + job.unit_size)};
  }

  /// Creates a job and queues its full partition. `record` appends the job
  /// record to the journal (false during resume replay — it is already
  /// there).
  Job& add_job_locked(uint64_t id, runner::SweepCliOptions grid_options,
                      size_t spec_count, size_t unit_size, size_t min_cores,
                      bool record) {
    Job& job = jobs[id];
    job.id = id;
    job.options = std::move(grid_options);
    job.spec_count = spec_count;
    job.unit_size = std::max<size_t>(1, unit_size);
    job.min_cores = min_cores;
    job.merger = runner::ResultMerger(spec_count);
    job.pending.clear();
    job.merge_log.clear();
    for (size_t u = 0; u * job.unit_size < spec_count; ++u) {
      job.pending.push_back(partition_unit(job, u));
    }
    if (job.merger.complete()) job.state = JobState::kDone;  // empty grid
    if (record && journal.open()) {
      journal.record_job(
          {id, job.options, spec_count, job.unit_size, min_cores});
    }
    log(fmt("job {} queued ({} specs in units of {})", id, spec_count,
            job.unit_size));
    return job;
  }

  /// Puts a unit back up for grabs unless its rows already merged. Only
  /// units of the job's own partition qualify — a unit echoed back by a
  /// confused worker must not be able to poison the pending queue.
  void requeue_locked(Job& job, const WorkUnit& unit, const char* why) {
    if (unit.begin >= job.spec_count ||
        unit != partition_unit(job, unit.id)) {
      log(fmt("dropped bogus unit {} [{}, {}) instead of requeueing ({})",
              unit.id, unit.begin, unit.end, why));
      return;
    }
    if (job.state != JobState::kRunning) return;
    if (job.merger.has(unit.begin)) return;
    job.pending.push_back(unit);
    service_registry.add("coord.reassignments");
    log(fmt("job {} unit {} [{}, {}) requeued ({})", job.id, unit.id,
            unit.begin, unit.end, why));
  }

  /// Drops every in-flight entry owned by `conn_id`, requeueing the units.
  void abandon_connection_locked(uint64_t conn_id, const char* why) {
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->conn_id == conn_id) {
        if (Job* job = find_job_locked(it->job)) {
          requeue_locked(*job, it->unit, why);
        }
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    cv.notify_all();
  }

  void merge_result_locked(const Message& message, uint64_t conn_id) {
    const WorkUnit& unit = message.unit;
    // Whatever the verdict, this connection no longer owns the unit; a
    // merged or duplicate unit must also leave the pending queue (it can
    // sit there when a slow original reports after a timeout requeue) —
    // claim_unit's stale-skip handles that part.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->job == message.job && it->unit.id == unit.id &&
          it->conn_id == conn_id) {
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    Job* job = find_job_locked(message.job);
    if (job == nullptr) {
      log(fmt("dropped result for unknown job {} from connection {}",
              message.job, conn_id));
      cv.notify_all();
      return;
    }
    if (job->state != JobState::kRunning) {
      log(fmt("dropped result for finished job {} from connection {}",
              job->id, conn_id));
      cv.notify_all();
      return;
    }
    if (unit != partition_unit(*job, unit.id) ||
        message.rows.size() != unit.size()) {
      log(fmt("dropped malformed result for job {} unit {} from "
              "connection {}",
              job->id, unit.id, conn_id));
      requeue_locked(*job, unit, "malformed result");
      cv.notify_all();
      return;
    }
    if (job->merger.has(unit.begin)) {
      // Late redelivery of an already-merged batch (timeout reassignment or
      // a reconnecting worker replaying its unacknowledged result).
      service_registry.add("coord.duplicates_dropped");
      log(fmt("dropped duplicate result for job {} unit {} from "
              "connection {}",
              job->id, unit.id, conn_id));
      cv.notify_all();
      return;
    }
    // Write-ahead: the batch must be durable before this handler serves the
    // worker's next frame (the implicit acknowledgment). A journal failure
    // leaves the unit unmerged — requeue it and surface the error.
    if (journal.open()) {
      try {
        journal.record_batch(job->id, unit, message.rows);
      } catch (...) {
        requeue_locked(*job, unit, "journal write failed");
        cv.notify_all();
        throw;
      }
    }
    const auto accept = job->merger.accept(unit.begin, message.rows);
    if (accept != runner::ResultMerger::Accept::kMerged) {
      // Unreachable given the checks above (units are partition-aligned),
      // but never let the journal and merger drift apart silently.
      throw std::runtime_error(
          fmt("job {} unit {} journaled but not merged", job->id, unit.id));
    }
    job->merge_log.push_back(unit);
    service_registry.add("coord.results_merged");
    if (WorkerInfo* worker = find_worker_locked(conn_id)) {
      worker->results_merged += 1;
    }
    // The batch is journaled and merged — the documented coord.merge
    // instant. kill here models a crash after durability but before the
    // worker's ack, which resume + duplicate-drop must absorb.
    chaos::hit(chaos::kCoordMerge);
    log(fmt("job {} merged {}/{}", job->id, job->merger.merged(),
            job->merger.total()));
    if (job->merger.complete()) {
      job->state = JobState::kDone;
      log(fmt("job {} complete", job->id));
      if (job->id == 0 && has_primary && !options.serve) stopping = true;
    }
    cv.notify_all();
  }

  // --- threads ------------------------------------------------------------

  void handle_connection(Socket socket, uint64_t conn_id) {
    obs::TraceWriter& tracer = obs::TraceWriter::instance();
    if (tracer.enabled()) {
      tracer.set_thread_name(fmt("coord-conn-{}", conn_id));
    }
    try {
      serve_connection(socket, conn_id);
    } catch (const std::exception& error) {
      log(fmt("connection {} failed: {}", conn_id, error.what()));
    }
    std::lock_guard<std::mutex> lock(mu);
    abandon_connection_locked(conn_id, "peer died");
    if (WorkerInfo* worker = find_worker_locked(conn_id)) {
      worker->connected = false;
    }
    cv.notify_all();
  }

  void serve_connection(Socket& socket, uint64_t conn_id) {
    // Handshake: hello (version-checked by decode), then welcome.
    const RecvResult first = socket.recv_frame(options.worker_silence_ms);
    if (first.status != RecvStatus::kFrame) {
      throw std::runtime_error("peer did not say hello");
    }
    const Message hello = decode(first.payload);
    if (hello.type != MsgType::kHello) {
      throw std::runtime_error("peer did not say hello");
    }
    socket.send_frame(encode(Message::welcome()));
    if (hello.role == Role::kClient) {
      log(fmt("client connected (connection {}, pid {})", conn_id,
              hello.worker_pid));
      serve_client(socket);
    } else {
      log(fmt("worker connected (connection {}, pid {}, {} cores, {} MB)",
              conn_id, hello.worker_pid, hello.cores, hello.memory_mb));
      {
        std::lock_guard<std::mutex> lock(mu);
        WorkerInfo worker;
        worker.conn_id = conn_id;
        worker.pid = hello.worker_pid;
        worker.cores = hello.cores;
        worker.memory_mb = hello.memory_mb;
        workers.push_back(std::move(worker));
      }
      serve_worker(socket, conn_id, hello.cores);
    }
  }

  void serve_worker(Socket& socket, uint64_t conn_id, size_t cores) {
    bool sent_stop = false;
    // Once the service is stopping, the connection gets stop plus an
    // absolute wind-down deadline — absolute so that a straggler still
    // heartbeating (or streaming stale duplicate results) cannot keep
    // run() hostage.
    std::optional<Clock::time_point> linger_deadline;
    const auto arm_linger = [&] {
      if (!linger_deadline.has_value()) {
        linger_deadline =
            Clock::now() + std::chrono::milliseconds(options.stop_linger_ms);
      }
    };
    for (;;) {
      const bool finished = [&] {
        std::lock_guard<std::mutex> lock(mu);
        return stopping;
      }();
      if (finished && !sent_stop) {
        // Proactive stop: a worker grinding a stale (already reassigned
        // and merged) unit reads it right after reporting, instead of
        // pulling into a dead service.
        socket.send_frame(encode(Message::stop()));
        sent_stop = true;
        arm_linger();
      }
      int timeout_ms = options.worker_silence_ms;
      if (linger_deadline.has_value()) {
        const auto remaining = std::chrono::duration_cast<
            std::chrono::milliseconds>(*linger_deadline - Clock::now());
        if (remaining.count() <= 0) return;  // cut the straggler off
        timeout_ms = static_cast<int>(remaining.count()) + 1;
      }
      // Worker silence beyond the budget means dead (a healthy worker
      // heartbeats far more often than this, even while executing).
      const RecvResult frame = socket.recv_frame(timeout_ms);
      if (frame.status == RecvStatus::kTimeout) {
        if (linger_deadline.has_value()) return;  // linger expired
        throw std::runtime_error("worker went silent");
      }
      if (frame.status == RecvStatus::kClosed) return;  // orderly exit
      const Message message = decode(frame.payload);
      switch (message.type) {
        case MsgType::kHeartbeat: {
          // Liveness (the recv timeout just reset) plus latency: the gap
          // between consecutive heartbeats, against the worker's fixed
          // send period, measures delivery + scheduling delay.
          std::lock_guard<std::mutex> lock(mu);
          service_registry.add("coord.heartbeats");
          if (WorkerInfo* worker = find_worker_locked(conn_id)) {
            const Clock::time_point now = Clock::now();
            worker->heartbeats += 1;
            if (worker->last_heartbeat.has_value()) {
              const auto gap =
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      now - *worker->last_heartbeat);
              worker->heartbeat_gap_ms.record(
                  static_cast<uint64_t>(gap.count()));
            }
            worker->last_heartbeat = now;
          }
          break;
        }
        case MsgType::kResult: {
          obs::TraceSpan span("merge", "dist",
                              {{"job", message.job}, {"unit", message.unit.id}});
          std::lock_guard<std::mutex> lock(mu);
          merge_result_locked(message, conn_id);
          break;
        }
        case MsgType::kJobRequest: {
          Message reply;
          {
            std::lock_guard<std::mutex> lock(mu);
            Job* job = find_job_locked(message.job);
            if (job == nullptr) {
              throw std::runtime_error(
                  fmt("job_request for unknown job {}", message.job));
            }
            reply = Message::job_description(job->id, job->options,
                                             job->spec_count);
          }
          socket.send_frame(encode(reply));
          break;
        }
        case MsgType::kPull: {
          const std::optional<Claim> claim = claim_unit(conn_id, cores);
          if (claim.has_value()) {
            obs::TraceWriter& tracer = obs::TraceWriter::instance();
            if (tracer.enabled()) {
              tracer.instant("dispatch", "dist",
                             {{"job", claim->job}, {"unit", claim->unit.id}});
            }
          }
          if (!claim.has_value()) {
            // Service wound down while this worker waited; tell it to stop
            // (unless the proactive stop above already did) and keep
            // looping — the next recv sees its close within the linger.
            if (!sent_stop) {
              socket.send_frame(encode(Message::stop()));
              sent_stop = true;
              arm_linger();
            }
            break;
          }
          const chaos::Action action = chaos::hit(chaos::kCoordDispatch);
          try {
            const std::string payload =
                encode(Message::make_unit(claim->job, claim->unit));
            if (action == chaos::Action::kPartial) {
              socket.send_partial_frame(payload);
              throw std::runtime_error("chaos: partial dispatch frame");
            }
            socket.send_frame(payload);
          } catch (...) {
            // The worker died between pulling and receiving; hand the
            // unit on.
            std::lock_guard<std::mutex> lock(mu);
            abandon_connection_locked(conn_id, "send failed");
            throw;
          }
          break;
        }
        default:
          throw std::runtime_error(fmt("unexpected '{}' message from worker",
                                       to_string(message.type)));
      }
    }
  }

  void serve_client(Socket& socket) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping) return;
      }
      // No silence deadline for clients — an idle client is legitimate.
      // Poll so the stopping check above runs between frames.
      const RecvResult frame = socket.recv_frame(options.tick_ms);
      if (frame.status == RecvStatus::kTimeout) continue;
      if (frame.status == RecvStatus::kClosed) return;
      const Message message = decode(frame.payload);
      switch (message.type) {
        case MsgType::kSubmit: {
          // Resolve the grid before taking the lock (scenario paths may
          // need file reads) — and before the job exists, so a bad grid
          // rejects the submission instead of queueing a poisoned job.
          const size_t spec_count = count_specs(message.options);
          uint64_t id = 0;
          {
            std::lock_guard<std::mutex> lock(mu);
            id = next_job_id++;
            add_job_locked(id, message.options, spec_count,
                           message.unit_size, message.min_cores,
                           /*record=*/true);
            cv.notify_all();
          }
          socket.send_frame(encode(Message::submitted(id, spec_count)));
          break;
        }
        case MsgType::kStatus: {
          Message reply;
          {
            std::lock_guard<std::mutex> lock(mu);
            Job* job = find_job_locked(message.job);
            if (job == nullptr) {
              throw std::runtime_error(
                  fmt("status request for unknown job {}", message.job));
            }
            reply = Message::job_status(job->id, job->state,
                                        job->merger.merged(),
                                        job->merger.total());
          }
          socket.send_frame(encode(reply));
          break;
        }
        case MsgType::kCancel: {
          Message reply;
          {
            std::lock_guard<std::mutex> lock(mu);
            Job* job = find_job_locked(message.job);
            if (job == nullptr) {
              throw std::runtime_error(
                  fmt("cancel request for unknown job {}", message.job));
            }
            if (job->state == JobState::kRunning) {
              job->state = JobState::kCancelled;
              job->pending.clear();
              if (journal.open()) journal.record_cancel(job->id);
              log(fmt("job {} cancelled", job->id));
              if (job->id == 0 && has_primary && !options.serve) {
                stopping = true;  // the primary sweep cannot finish now
              }
              cv.notify_all();
            }
            reply = Message::job_status(job->id, job->state,
                                        job->merger.merged(),
                                        job->merger.total());
          }
          socket.send_frame(encode(reply));
          break;
        }
        case MsgType::kFetch: {
          stream_job(socket, message.job);
          break;
        }
        case MsgType::kMetrics: {
          Message reply;
          {
            std::lock_guard<std::mutex> lock(mu);
            reply = Message::metrics_report(build_metrics_locked());
          }
          socket.send_frame(encode(reply));
          break;
        }
        case MsgType::kJobRequest: {
          // Clients may ask for a job's grid description too (a fetching
          // client rebuilds the report header from it).
          Message reply;
          {
            std::lock_guard<std::mutex> lock(mu);
            Job* job = find_job_locked(message.job);
            if (job == nullptr) {
              throw std::runtime_error(
                  fmt("job_request for unknown job {}", message.job));
            }
            reply = Message::job_description(job->id, job->options,
                                             job->spec_count);
          }
          socket.send_frame(encode(reply));
          break;
        }
        default:
          throw std::runtime_error(fmt("unexpected '{}' message from client",
                                       to_string(message.type)));
      }
    }
  }

  /// Streams a job's merged batches to a fetching client in merge order,
  /// following live merges until the job leaves the running state, then
  /// terminates the stream with job_done. Sends happen outside the lock so
  /// a slow client cannot stall the fleet.
  void stream_job(Socket& socket, uint64_t job_id) {
    size_t next = 0;
    for (;;) {
      std::vector<Message> out;
      std::optional<JobState> final_state;
      {
        std::unique_lock<std::mutex> lock(mu);
        Job* job = find_job_locked(job_id);
        if (job == nullptr) {
          throw std::runtime_error(
              fmt("fetch request for unknown job {}", job_id));
        }
        while (next < job->merge_log.size()) {
          const WorkUnit unit = job->merge_log[next++];
          std::vector<runner::RunRow> rows;
          rows.reserve(unit.size());
          for (size_t i = unit.begin; i < unit.end; ++i) {
            rows.push_back(job->merger.row(i));
          }
          out.push_back(Message::result(job_id, unit, std::move(rows)));
        }
        if (out.empty()) {
          if (job->state != JobState::kRunning) {
            final_state = job->state;
          } else if (stopping) {
            return;  // shutdown mid-fetch; the close tells the client
          } else {
            cv.wait_for(lock, std::chrono::milliseconds(options.tick_ms));
            continue;
          }
        }
      }
      for (const Message& message : out) {
        socket.send_frame(encode(message));
      }
      if (final_state.has_value()) {
        socket.send_frame(encode(Message::job_done(job_id, *final_state)));
        return;
      }
    }
  }

  /// The `metrics` reply payload: service registry snapshot (event
  /// counters + journal fsync latency from obs::service()) with live
  /// queue/fleet gauges, plus a per-worker listing. Shape documented in
  /// docs/OBSERVABILITY.md.
  [[nodiscard]] util::JsonValue build_metrics_locked() const {
    obs::Registry registry = obs::service().snapshot();
    registry.merge(service_registry);
    size_t queue_depth = 0;
    size_t running = 0;
    size_t done = 0;
    size_t cancelled = 0;
    for (const auto& [id, job] : jobs) {
      switch (job.state) {
        case JobState::kRunning:
          running += 1;
          queue_depth += job.pending.size();
          break;
        case JobState::kDone: done += 1; break;
        case JobState::kCancelled: cancelled += 1; break;
      }
    }
    size_t connected = 0;
    for (const WorkerInfo& worker : workers) {
      if (worker.connected) connected += 1;
    }
    registry.set_gauge("coord.queue_depth", static_cast<double>(queue_depth));
    registry.set_gauge("coord.in_flight", static_cast<double>(in_flight.size()));
    registry.set_gauge("coord.jobs_running", static_cast<double>(running));
    registry.set_gauge("coord.jobs_done", static_cast<double>(done));
    registry.set_gauge("coord.jobs_cancelled", static_cast<double>(cancelled));
    registry.set_gauge("coord.workers_connected",
                       static_cast<double>(connected));
    util::JsonValue out = util::JsonValue::object();
    out["metrics"] = registry.to_json();
    util::JsonValue listing = util::JsonValue::array();
    const Clock::time_point now = Clock::now();
    for (const WorkerInfo& worker : workers) {
      util::JsonValue w = util::JsonValue::object();
      w["conn"] = util::JsonValue(worker.conn_id);
      w["pid"] = util::JsonValue(worker.pid);
      w["cores"] = util::JsonValue(worker.cores);
      w["memory_mb"] = util::JsonValue(worker.memory_mb);
      w["connected"] = util::JsonValue(worker.connected);
      w["units_dispatched"] = util::JsonValue(worker.units_dispatched);
      w["results_merged"] = util::JsonValue(worker.results_merged);
      w["heartbeats"] = util::JsonValue(worker.heartbeats);
      w["heartbeat_gap_ms"] = worker.heartbeat_gap_ms.to_json();
      w["heartbeat_gap_mean_ms"] =
          util::JsonValue(worker.heartbeat_gap_ms.mean());
      w["heartbeat_gap_p95_ms"] = util::JsonValue(
          static_cast<double>(worker.heartbeat_gap_ms.quantile_bound(0.95)));
      if (worker.last_heartbeat.has_value()) {
        const auto ago = std::chrono::duration_cast<std::chrono::milliseconds>(
            now - *worker.last_heartbeat);
        w["last_heartbeat_ms_ago"] =
            util::JsonValue(static_cast<double>(ago.count()));
      }
      listing.push_back(std::move(w));
    }
    out["workers"] = std::move(listing);
    return out;
  }

  struct Claim {
    uint64_t job = 0;
    WorkUnit unit;
  };

  /// Claims the next unit this worker is eligible for (its core count must
  /// meet the job's min_cores floor): blocks until one frees up, or returns
  /// nullopt once the service is stopping.
  std::optional<Claim> claim_unit(uint64_t conn_id, size_t cores) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (stopping) return std::nullopt;
      for (auto& [id, job] : jobs) {
        if (job.state != JobState::kRunning) continue;
        // Skip pending copies whose rows arrived while they waited.
        while (!job.pending.empty() &&
               job.merger.has(job.pending.front().begin)) {
          job.pending.pop_front();
        }
        if (job.pending.empty() || cores < job.min_cores) continue;
        const WorkUnit unit = job.pending.front();
        job.pending.pop_front();
        in_flight.push_back(
            {id, unit, conn_id,
             Clock::now() +
                 std::chrono::milliseconds(options.unit_timeout_ms)});
        service_registry.add("coord.units_dispatched");
        if (WorkerInfo* worker = find_worker_locked(conn_id)) {
          worker->units_dispatched += 1;
        }
        return Claim{id, unit};
      }
      cv.wait(lock);
    }
  }

  void accept_loop() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping) return;
      }
      std::optional<Socket> socket;
      try {
        socket = listener.accept(options.tick_ms);
      } catch (const std::exception& error) {
        // Transient accept failures (EMFILE under a huge fleet, ...) must
        // degrade to a refused connection, not a dead coordinator.
        log(fmt("accept failed, retrying: {}", error.what()));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.tick_ms));
        continue;
      }
      if (!socket.has_value()) continue;
      std::lock_guard<std::mutex> lock(mu);
      const uint64_t conn_id = next_conn_id++;
      handlers.emplace_back(
          [this, conn_id, sock = std::move(*socket)]() mutable {
            handle_connection(std::move(sock), conn_id);
          });
    }
  }

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      cv.wait_for(lock, std::chrono::milliseconds(options.tick_ms));
      if (stopping) return;
      const Clock::time_point now = Clock::now();
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (it->deadline <= now) {
          if (Job* job = find_job_locked(it->job)) {
            requeue_locked(*job, it->unit, "unit timeout");
          }
          it = in_flight.erase(it);
          cv.notify_all();
        } else {
          ++it;
        }
      }
    }
  }

  std::vector<runner::RunRow> run() {
    {
      std::lock_guard<std::mutex> lock(mu);
      // A resumed primary job may already be fully merged; don't wait for
      // a fleet that has nothing to do.
      if (has_primary && !options.serve) {
        const Job* primary = find_job_locked(0);
        if (primary != nullptr && primary->state != JobState::kRunning) {
          stopping = true;
        }
      }
    }

    std::thread acceptor([this] { accept_loop(); });
    std::thread monitor([this] { monitor_loop(); });

    const bool bounded = options.total_timeout_ms > 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options.total_timeout_ms);
    bool expired = false;
    {
      std::unique_lock<std::mutex> lock(mu);
      while (!stopping) {
        if (bounded) {
          if (cv.wait_until(lock, deadline) == std::cv_status::timeout &&
              !stopping) {
            expired = true;
            stopping = true;  // unblock every thread; workers get stop
            break;
          }
        } else {
          cv.wait(lock);
        }
      }
      cv.notify_all();
    }

    acceptor.join();
    monitor.join();
    // Handler threads wind down once their peer closes (stop was or will
    // be sent on a worker's next pull; clients poll the stopping flag) or
    // goes silent past the linger.
    for (;;) {
      std::vector<std::thread> batch;
      {
        std::lock_guard<std::mutex> lock(mu);
        batch.swap(handlers);
      }
      if (batch.empty()) break;
      for (std::thread& handler : batch) handler.join();
    }

    std::lock_guard<std::mutex> lock(mu);
    if (expired) {
      std::string progress;
      if (const Job* primary = find_job_locked(0);
          primary != nullptr && has_primary) {
        progress = fmt(" with {}/{} runs merged", primary->merger.merged(),
                       primary->merger.total());
      }
      throw std::runtime_error(fmt("distributed sweep timed out after {} ms{}",
                                   options.total_timeout_ms, progress));
    }
    if (!has_primary) return {};
    Job* primary = find_job_locked(0);
    if (primary == nullptr || primary->state == JobState::kCancelled) {
      throw std::runtime_error("sweep job was cancelled");
    }
    if (primary->state != JobState::kDone) {
      throw std::runtime_error(
          "coordinator shut down before the sweep completed");
    }
    return primary->merger.take_rows();
  }

  void shutdown() {
    std::lock_guard<std::mutex> lock(mu);
    stopping = true;
    cv.notify_all();
  }
};

Coordinator::Coordinator(runner::SweepCliOptions grid_options,
                         Options options)
    : impl_(std::make_unique<Impl>(options)) {
  // Resolving the grid here (not in run) validates it before any worker is
  // spawned and pins the spec count announced in job messages.
  const size_t spec_count = count_specs(grid_options);
  if (!options.journal_path.empty()) {
    impl_->journal = JournalWriter::create(
        options.journal_path,
        {options.bind_address, impl_->listener.port()});
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->add_job_locked(0, std::move(grid_options), spec_count,
                        options.unit_size, /*min_cores=*/0, /*record=*/true);
  impl_->has_primary = true;
}

Coordinator::Coordinator(Options options)
    : impl_(std::make_unique<Impl>(options)) {
  if (!options.journal_path.empty()) {
    impl_->journal = JournalWriter::create(
        options.journal_path,
        {options.bind_address, impl_->listener.port()});
  }
}

Coordinator::Coordinator(const JournalContents& contents, Options options)
    : impl_(nullptr) {
  // The journal header pins the coordinator's identity: orphaned workers
  // are retrying that address, so the resumed instance must live there.
  Options effective = options;
  effective.bind_address = contents.header.bind_address;
  effective.port = contents.header.port;
  impl_ = std::make_unique<Impl>(effective);
  if (!options.journal_path.empty()) {
    impl_->journal = JournalWriter::append_to(options.journal_path);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const JournalJob& job : contents.jobs) {
    impl_->add_job_locked(job.job, job.options, job.spec_count,
                          job.unit_size, job.min_cores, /*record=*/false);
    impl_->next_job_id = std::max(impl_->next_job_id, job.job + 1);
  }
  for (const JournalBatch& batch : contents.batches) {
    Impl::Job* job = impl_->find_job_locked(batch.job);
    if (job == nullptr) {
      throw std::runtime_error(
          fmt("journal batch references unknown job {}", batch.job));
    }
    if (batch.unit != Impl::partition_unit(*job, batch.unit.id)) {
      throw std::runtime_error(
          fmt("journal batch for job {} unit {} does not match the "
              "partition",
              batch.job, batch.unit.id));
    }
    if (job->merger.has(batch.unit.begin)) continue;  // raced a crash
    job->merger.accept(batch.unit.begin, batch.rows);
    job->merge_log.push_back(batch.unit);
    if (job->merger.complete()) job->state = JobState::kDone;
  }
  for (const uint64_t cancelled : contents.cancelled_jobs) {
    if (Impl::Job* job = impl_->find_job_locked(cancelled)) {
      if (job->state == JobState::kRunning) job->pending.clear();
      job->state = JobState::kCancelled;
    }
  }
  impl_->has_primary = impl_->find_job_locked(0) != nullptr;
}

Coordinator::~Coordinator() = default;

uint16_t Coordinator::port() const { return impl_->listener.port(); }

size_t Coordinator::spec_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const Impl::Job* primary = impl_->find_job_locked(0);
  return primary == nullptr ? 0 : primary->spec_count;
}

std::vector<runner::RunRow> Coordinator::run() { return impl_->run(); }

void Coordinator::shutdown() { impl_->shutdown(); }

}  // namespace sb::dist
