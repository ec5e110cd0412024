// Golden execution-order digests. Each case runs a full reconfiguration
// session with Simulator::enable_event_trace() on and hashes every trace
// line — they carry (time, seq, kind, endpoints, tag) — into one FNV-1a
// digest that must equal a recorded value; the values were recorded on the
// reference binary-heap queue. The determinism tests elsewhere only compare
// runs of one build against each other (thread counts, shard counts),
// which a consistently reordered queue would still pass; these digests pin
// the schedule itself, so an event-queue or record-layout change that
// alters the order in which events pop fails here.
//
// To re-record after an intended schedule change, run the suite and copy
// the "actual" digests from the failure messages.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "msg/latency.hpp"

namespace sb {
namespace {

uint64_t fnv1a(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Digest of every trace stream in stream order, one line per event.
uint64_t trace_digest(const std::vector<std::vector<std::string>>& streams) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t s = 0; s < streams.size(); ++s) {
    hash = fnv1a(hash, "stream " + std::to_string(s) + "\n");
    for (const std::string& line : streams[s]) {
      hash = fnv1a(hash, line);
      hash = fnv1a(hash, "\n");
    }
  }
  return hash;
}

struct GoldenCase {
  const char* name;
  const char* scenario;
  msg::LatencyModel latency;
  size_t shards;
  size_t threads;
  sim::Ticks ack_timeout;
  uint64_t events;  ///< events processed
  uint64_t digest;  ///< trace_digest of the run's event trace
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class GoldenTraceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, EventTraceMatchesRecordedDigest) {
  const GoldenCase& c = GetParam();
  core::SessionConfig config;
  config.sim.latency = c.latency;
  config.sim.shards = c.shards;
  config.sim.shard_threads = c.threads;
  config.ack_timeout = c.ack_timeout;
  // A bound, not a target: every case converges well inside it.
  config.max_events = 5'000'000;
  core::ReconfigurationSession session(lat::resolve_scenario(c.scenario),
                                       config);
  session.simulator().enable_event_trace();
  const core::SessionResult result = session.run();
  ASSERT_TRUE(result.complete) << c.name;
  EXPECT_EQ(result.events_processed, c.events) << c.name;
  const uint64_t digest = trace_digest(session.simulator().event_trace());
  EXPECT_EQ(digest, c.digest)
      << c.name << ": actual digest 0x" << std::hex << digest;
}

// The uniform(1,8) cases mirror bench_e2e's latency; shards=4 at 1 and 4
// threads must hash identically to each other as well as to the record.
// The exponential(5) cases run the fault-mode protocol, whose ack timers
// fire 1000 ticks out — far past the calendar queue's 64-tick ring — so
// the overflow path and its migration back into the ring are pinned too.
INSTANTIATE_TEST_SUITE_P(
    Recorded, GoldenTraceTest,
    ::testing::Values(
        GoldenCase{"tower32_classic", "tower32",
                   msg::LatencyModel::uniform(1, 8), 1, 1, 0, 38320,
                   0xa236bbd7c3e8a864ULL},
        GoldenCase{"tower32_shards4_threads1", "tower32",
                   msg::LatencyModel::uniform(1, 8), 4, 1, 0, 38324,
                   0xd2dfdd540ec46257ULL},
        GoldenCase{"tower32_shards4_threads4", "tower32",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 38324,
                   0xd2dfdd540ec46257ULL},
        GoldenCase{"fig10_classic", "fig10", msg::LatencyModel::uniform(1, 8),
                   1, 1, 0, 1781, 0xe2b7f25803451d88ULL},
        GoldenCase{"fig10_shards4_threads1", "fig10",
                   msg::LatencyModel::uniform(1, 8), 4, 1, 0, 1780,
                   0x52d2b3eb0236acfaULL},
        GoldenCase{"fig10_shards4_threads4", "fig10",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 1780,
                   0x52d2b3eb0236acfaULL},
        GoldenCase{"tower32_exp5_timeout_classic", "tower32",
                   msg::LatencyModel::exponential(5.0), 1, 1, 1000, 53573,
                   0xe984f9673f646d70ULL},
        GoldenCase{"tower32_exp5_timeout_shards4_threads4", "tower32",
                   msg::LatencyModel::exponential(5.0), 4, 4, 1000, 53576,
                   0x71a927575c0797f9ULL}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace sb
