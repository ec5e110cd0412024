#include "dist/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/serialize.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"

namespace sb::dist {

namespace {

using util::get_field;
using util::get_int;
using util::get_size;
using util::get_string;
using util::JsonValue;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

JsonValue job_to_json(const JournalJob& job) {
  JsonValue out = JsonValue::object();
  out["record"] = JsonValue("job");
  out["job"] = JsonValue(job.job);
  out["options"] = runner::options_to_json(job.options);
  out["spec_count"] = JsonValue(job.spec_count);
  out["unit_size"] = JsonValue(job.unit_size);
  out["min_cores"] = JsonValue(job.min_cores);
  return out;
}

JournalJob job_from_json(const JsonValue& json) {
  JournalJob job;
  job.job = get_size(json, "job");
  job.options = runner::options_from_json(
      get_field(json, "options", JsonValue::Kind::kObject));
  job.spec_count = get_size(json, "spec_count");
  job.unit_size = get_size(json, "unit_size");
  job.min_cores = get_size(json, "min_cores");
  if (job.unit_size == 0) {
    throw std::runtime_error("journal job record has unit_size 0");
  }
  return job;
}

JournalBatch batch_from_json(const JsonValue& json) {
  JournalBatch batch;
  batch.job = get_size(json, "job");
  batch.unit.id = get_size(json, "id");
  batch.unit.begin = get_size(json, "begin");
  batch.unit.end = get_size(json, "end");
  if (batch.unit.end < batch.unit.begin) {
    throw std::runtime_error("journal batch record has end < begin");
  }
  for (const JsonValue& row :
       get_field(json, "rows", JsonValue::Kind::kArray).as_array()) {
    batch.rows.push_back(runner::row_from_json(row));
  }
  if (batch.rows.size() != batch.unit.size()) {
    throw std::runtime_error(
        fmt("journal batch record covers {} specs but carries {} rows",
            batch.unit.size(), batch.rows.size()));
  }
  return batch;
}

}  // namespace

JournalWriter::~JournalWriter() { close(); }

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalHeader& header) {
  JournalWriter writer;
  writer.path_ = path;
  writer.fd_ = ::open(path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                      0644);
  if (writer.fd_ < 0) throw_errno(fmt("cannot create journal '{}'", path));
  JsonValue record = JsonValue::object();
  record["record"] = JsonValue("header");
  record["format"] = JsonValue(kJournalFormat);
  record["bind"] = JsonValue(header.bind_address);
  record["port"] = JsonValue(header.port);
  writer.append_line(record.dump());
  return writer;
}

JournalWriter JournalWriter::append_to(const std::string& path) {
  JournalWriter writer;
  writer.path_ = path;
  writer.fd_ =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (writer.fd_ < 0) {
    throw_errno(fmt("cannot open journal '{}' for append", path));
  }
  return writer;
}

void JournalWriter::append_line(const std::string& line) {
  const obs::TraceSpan span("journal_fsync", "dist",
                            {{"bytes", line.size() + 1}});
  const auto start = std::chrono::steady_clock::now();
  // One write per record: O_APPEND makes the offset atomic, and a crash
  // mid-call tears at most this line — which read_journal drops.
  std::string wire = line;
  wire.push_back('\n');
  size_t written = 0;
  while (written < wire.size()) {
    const ssize_t n =
        ::write(fd_, wire.data() + written, wire.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(fmt("journal '{}' write failed", path_));
    }
    written += static_cast<size_t>(n);
  }
  // Durable before the batch is acknowledged to the fleet: a record that
  // survives only in the page cache would vanish with a crashed box.
  if (::fdatasync(fd_) != 0) {
    throw_errno(fmt("journal '{}' fsync failed", path_));
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  obs::service().record("journal.fsync_us",
                        static_cast<uint64_t>(micros.count()));
}

void JournalWriter::record_job(const JournalJob& job) {
  append_line(job_to_json(job).dump());
}

void JournalWriter::record_batch(uint64_t job, const WorkUnit& unit,
                                 const std::vector<runner::RunRow>& rows) {
  JsonValue record = JsonValue::object();
  record["record"] = JsonValue("batch");
  record["job"] = JsonValue(job);
  record["id"] = JsonValue(unit.id);
  record["begin"] = JsonValue(unit.begin);
  record["end"] = JsonValue(unit.end);
  JsonValue out_rows = JsonValue::array();
  for (const runner::RunRow& row : rows) {
    out_rows.push_back(runner::encode_row(row, runner::RowFormat::kWire));
  }
  record["rows"] = std::move(out_rows);
  append_line(record.dump());
}

void JournalWriter::record_cancel(uint64_t job) {
  JsonValue record = JsonValue::object();
  record["record"] = JsonValue("cancel");
  record["job"] = JsonValue(job);
  append_line(record.dump());
}

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(fmt("cannot read journal '{}'", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  JournalContents contents;
  bool have_header = false;
  size_t start = 0;
  size_t line_no = 0;
  while (start < text.size()) {
    const size_t newline = text.find('\n', start);
    const bool terminated = newline != std::string::npos;
    const std::string line =
        text.substr(start, (terminated ? newline : text.size()) - start);
    const bool last = !terminated || newline + 1 >= text.size();
    ++line_no;
    try {
      const JsonValue json = util::parse_json(line);
      if (!json.is_object()) throw std::runtime_error("not an object");
      if (!terminated) {
        // A record is only committed once its newline hit the disk.
        throw std::runtime_error("unterminated record");
      }
      const std::string& record = get_string(json, "record");
      if (record == "header") {
        const std::string& format = get_string(json, "format");
        if (format != kJournalFormat) {
          throw std::runtime_error(fmt("unsupported journal format '{}'",
                                       format));
        }
        contents.header.bind_address = get_string(json, "bind");
        contents.header.port =
            static_cast<uint16_t>(get_int(json, "port", 0, UINT16_MAX));
        have_header = true;
      } else if (record == "job") {
        contents.jobs.push_back(job_from_json(json));
      } else if (record == "batch") {
        contents.batches.push_back(batch_from_json(json));
      } else if (record == "cancel") {
        contents.cancelled_jobs.push_back(get_size(json, "job"));
      } else {
        throw std::runtime_error(fmt("unknown record kind '{}'", record));
      }
    } catch (const std::exception& error) {
      if (last) break;  // torn tail from a crashed coordinator — drop it
      throw std::runtime_error(fmt("journal '{}' line {} is corrupt: {}",
                                   path, line_no, error.what()));
    }
    if (!terminated) break;
    start = newline + 1;
  }
  if (!have_header) {
    throw std::runtime_error(
        fmt("journal '{}' has no {} header record", path, kJournalFormat));
  }
  return contents;
}

}  // namespace sb::dist
