#pragma once
// Write-ahead result journal of the distributed sweep coordinator.
//
// Every result batch the coordinator merges is appended to an on-disk
// journal and fsync'd *before* the merge becomes visible to the fleet (the
// worker's next frame is only served after the record is durable), so a
// coordinator killed at any instant can be restarted with
// `sweep --resume <journal>` and lose no completed work: the journal is
// replayed through the same runner::ResultMerger (whose at-most-once /
// half-overlap rules make replay idempotent), and only unfinished units are
// re-dispatched.
//
// Format ("sb-dist-journal-v3"): a line-oriented append-only file, one JSON
// record per '\n'-terminated line.
//
//   {"record":"header","format":"sb-dist-journal-v3","bind":...,"port":N}
//   {"record":"job","job":J,"options":{...},"spec_count":N,"unit_size":U,
//    "min_cores":C}
//   {"record":"batch","job":J,"id":I,"begin":B,"end":E,"rows":[...]}
//   {"record":"cancel","job":J}
//
// Each record is written with a single write(2) to an O_APPEND fd followed
// by fdatasync, so a crashed coordinator can tear at most the final line.
// read_journal tolerates exactly that: an unparseable or unterminated last
// line is dropped (the batch it described was never acknowledged, so the
// unit simply re-executes); corruption anywhere else throws. Row values
// round-trip bit-exactly (runner/serialize), which is what keeps a resumed
// sweep's merged BENCH_sim.json byte-identical to an uninterrupted one.

#include <cstdint>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "runner/cli_options.hpp"
#include "runner/report.hpp"

namespace sb::dist {

/// Bumped with kProtocolVersion whenever journaled rows stop matching what
/// this build would compute (v2: sharded runs stripe at equal block count;
/// v3: sharded blocks keep their registration shard), so a resume never
/// merges rows from two engines into one report.
inline constexpr char kJournalFormat[] = "sb-dist-journal-v3";

/// Coordinator identity pinned by the journal: a resumed coordinator
/// re-binds the same address so disconnected workers find it again.
struct JournalHeader {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
};

/// One job known to the coordinator (the primary sweep is job 0; client
/// submissions follow).
struct JournalJob {
  uint64_t job = 0;
  runner::SweepCliOptions options;
  size_t spec_count = 0;
  size_t unit_size = 1;
  /// Heterogeneous dispatch floor: units only go to workers whose hello
  /// announced at least this many cores (0 = any worker).
  size_t min_cores = 0;
};

/// One journaled (already merged and durable) result batch.
struct JournalBatch {
  uint64_t job = 0;
  WorkUnit unit;
  std::vector<runner::RunRow> rows;
};

/// Everything a resumed coordinator needs, in append order.
struct JournalContents {
  JournalHeader header;
  std::vector<JournalJob> jobs;
  std::vector<JournalBatch> batches;
  std::vector<uint64_t> cancelled_jobs;
};

/// Appends records with per-record write + fdatasync. Not thread-safe; the
/// coordinator serializes appends under its state mutex.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates (truncating any previous file) and writes the header record.
  [[nodiscard]] static JournalWriter create(const std::string& path,
                                            const JournalHeader& header);

  /// Re-opens an existing journal for appending (resume keeps journaling
  /// into the same file; replay dedups any batch that raced the crash).
  [[nodiscard]] static JournalWriter append_to(const std::string& path);

  [[nodiscard]] bool open() const { return fd_ >= 0; }

  void record_job(const JournalJob& job);
  void record_batch(uint64_t job, const WorkUnit& unit,
                    const std::vector<runner::RunRow>& rows);
  void record_cancel(uint64_t job);

  void close();

 private:
  void append_line(const std::string& line);

  int fd_ = -1;
  std::string path_;
};

/// Parses a journal file. Throws std::runtime_error when the file is
/// missing, the header is absent or wrong-format, or a non-final record is
/// corrupt; a torn final line is silently dropped.
[[nodiscard]] JournalContents read_journal(const std::string& path);

}  // namespace sb::dist
