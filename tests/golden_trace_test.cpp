// Golden execution-order digests. Each case runs a full reconfiguration
// session with Simulator::enable_event_trace() on and hashes the trace's
// lines — they carry (queue, time, seq, kind, endpoints, tag), in the order
// the rendezvous sees them — into one FNV-1a digest that must equal a
// recorded value. Because the trace is one stream, the digest pins where
// each grid mutation falls between the shards' windows as well as each
// queue's own order. The determinism tests elsewhere only compare
// runs of one build against each other (thread counts, shard counts),
// which a consistently reordered queue would still pass; these digests pin
// the schedule itself, so an event-queue or record-layout change that
// alters the order in which events pop fails here.
//
// To re-record after an intended schedule change, run the suite and copy
// the "actual" digests from the failure messages. A change meant to keep
// every queue's order (say, a new trace layout) can prove it first:
// grouped by `s=`, with that field dropped, the new trace must equal the
// old build's per-queue lines byte for byte (docs/TESTING.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "msg/latency.hpp"
#include "sim/simulator.hpp"

namespace sb {
namespace {

uint64_t fnv1a(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Digest of the trace, one line per event.
uint64_t trace_digest(const std::vector<std::string>& trace) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& line : trace) {
    hash = fnv1a(hash, line);
    hash = fnv1a(hash, "\n");
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
  /// Algorithm-1 iteration cap; 0 = automatic. A capped case stops
  /// blocked, halted at the cap, instead of completing.
  uint32_t max_iterations = 0;
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
  config.max_iterations = c.max_iterations;
  // A bound, not a target: every case stops well inside it.
  config.max_events = 5'000'000;
  core::ReconfigurationSession session(lat::resolve_scenario(c.scenario),
                                       config);
  session.simulator().enable_event_trace();
  const core::SessionResult result = session.run();
  if (c.max_iterations == 0) {
    ASSERT_TRUE(result.complete) << c.name;
  } else {
    ASSERT_FALSE(result.complete) << c.name;
    ASSERT_TRUE(result.blocked) << c.name;
    ASSERT_EQ(result.stop_reason, sim::StopReason::kHalted) << c.name;
    ASSERT_EQ(result.iterations, c.max_iterations) << c.name;
  }
  EXPECT_EQ(result.events_processed, c.events) << c.name;
  const uint64_t digest = trace_digest(session.simulator().event_trace());
  EXPECT_EQ(digest, c.digest)
      << c.name << ": actual digest 0x" << std::hex << digest;
}

// The uniform(1,8) cases mirror bench_e2e's latency; shards=4 at 1 and 4
// threads must hash identically to each other as well as to the record.
// Under exponential(5) the latency tail lands deliveries on a motion's
// landing tick, where the grid mutation runs first.
// The shards=4 digests depend on the shard map; they were recorded on
// column stripes cut at equal block count, with every block's events run
// by the shard it registered on, wherever it moves.
// The tower cases keep every block in two adjacent stripes, so no shard
// ever receives cross-shard deliveries from two producers in one window.
// The blob1000 cases fill all four stripes, so an inner shard receives
// deliveries from both neighbours in one window, and the digests pin the
// producer order in which those deliveries reach its queue; at one shard,
// they pin a window that spans many columns. A full blob run takes
// thousands of epochs; an iteration cap of 3 stops it, blocked, after the
// first elections and moves.
// The exponential(5) cases run the fault-mode protocol, whose ack timers
// fire 1000 ticks out — far past the calendar queue's 64-tick ring — so
// the overflow path and its migration back into the ring are pinned too.
// The blob20000 and blob40000 cases run worlds above the drain's
// receiver-prefetch gate, one epoch each, recorded on builds where the
// prefetch never ran (blob20000 before it existed, blob40000 with its gate
// out of reach), so they pin that the prefetch changes no event.
static_assert(20000 > sim::Simulator::kReceiverPrefetchModules,
              "the blob20000 cases must run above the prefetch gate");
static_assert(40000 >= 2 * sim::Simulator::kReceiverPrefetchModules,
              "the blob40000 cases must stay well above the prefetch gate");
INSTANTIATE_TEST_SUITE_P(
    Recorded, GoldenTraceTest,
    ::testing::Values(
        GoldenCase{"tower32_shards1", "tower32",
                   msg::LatencyModel::uniform(1, 8), 1, 1, 0, 38320,
                   0x94d955415ffc9b43ULL},
        GoldenCase{"tower32_shards4_threads1", "tower32",
                   msg::LatencyModel::uniform(1, 8), 4, 1, 0, 38326,
                   0xb208fa62bf009efeULL},
        GoldenCase{"tower32_shards4_threads4", "tower32",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 38326,
                   0xb208fa62bf009efeULL},
        GoldenCase{"fig10_shards1", "fig10", msg::LatencyModel::uniform(1, 8),
                   1, 1, 0, 1781, 0x9d3e690212536da2ULL},
        GoldenCase{"fig10_shards4_threads1", "fig10",
                   msg::LatencyModel::uniform(1, 8), 4, 1, 0, 1769,
                   0xdcea026fc61fc8eaULL},
        GoldenCase{"fig10_shards4_threads4", "fig10",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 1769,
                   0xdcea026fc61fc8eaULL},
        GoldenCase{"tower32_exp5_timeout_shards1", "tower32",
                   msg::LatencyModel::exponential(5.0), 1, 1, 1000, 53635,
                   0x84174a80ce9887a1ULL},
        GoldenCase{"tower32_exp5_timeout_shards4_threads4", "tower32",
                   msg::LatencyModel::exponential(5.0), 4, 4, 1000, 53437,
                   0x5e548ee7ee418ca9ULL},
        GoldenCase{"blob1000_shards1_cap3", "blob1000",
                   msg::LatencyModel::uniform(1, 8), 1, 1, 0, 26932,
                   0xa4460e2f755712a6ULL, 3},
        GoldenCase{"blob1000_shards4_threads1_cap3", "blob1000",
                   msg::LatencyModel::uniform(1, 8), 4, 1, 0, 26903,
                   0x3083f74410a8f5e1ULL, 3},
        GoldenCase{"blob1000_shards4_threads4_cap3", "blob1000",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 26903,
                   0x3083f74410a8f5e1ULL, 3},
        GoldenCase{"blob20000_shards1_cap1", "blob20000",
                   msg::LatencyModel::uniform(1, 8), 1, 1, 0, 198478,
                   0x571e50227bdc1f02ULL, 1},
        GoldenCase{"blob20000_shards4_threads4_cap1", "blob20000",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 198417,
                   0x34952160ebca6d3fULL, 1},
        GoldenCase{"blob40000_shards1_cap1", "blob40000",
                   msg::LatencyModel::uniform(1, 8), 1, 1, 0, 397803,
                   0xd8ac1b3bfcfa9bc5ULL, 1},
        GoldenCase{"blob40000_shards4_threads4_cap1", "blob40000",
                   msg::LatencyModel::uniform(1, 8), 4, 4, 0, 397532,
                   0xaf7c3d1d82d3d81bULL, 1}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace sb
