// Observability layer suite (src/obs/): histogram bucket geometry over the
// full uint64_t range, the deterministic-merge guarantee the shard engine
// relies on (a merged Registry is identical regardless of how samples were
// partitioned across workers), JSON and Prometheus serialization, and the
// trace writer's structural invariants — output parses with util/json,
// nests properly, and stays timestamp-ordered per thread; disabled, every
// emission is a no-op — and the shard engine's round spans on a real
// sharded session.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/reconfig.hpp"
#include "lattice/scenario.hpp"
#include "msg/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace sb::obs {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(Histogram, BucketEdgesCoverTheWholeRange) {
  // Bucket 0 is exact zeros; bucket k holds [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(Histogram::bucket_of(uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::bucket_of(kU64Max), 64u);

  EXPECT_EQ(Histogram::bucket_limit(0), 0u);
  EXPECT_EQ(Histogram::bucket_limit(1), 1u);
  EXPECT_EQ(Histogram::bucket_limit(2), 3u);
  EXPECT_EQ(Histogram::bucket_limit(63), (uint64_t{1} << 63) - 1);
  EXPECT_EQ(Histogram::bucket_limit(64), kU64Max);

  // Every bucket's limit maps back into that bucket (edges are consistent).
  for (size_t k = 0; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_limit(k)), k)
        << "bucket " << k;
  }
}

TEST(Histogram, RecordsExtremesAndQuantiles) {
  Histogram hist;
  hist.record(0);
  hist.record(0);
  hist.record(1);
  hist.record(1000);
  hist.record(kU64Max);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.bucket(0), 2u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(10), 1u);  // 1000 in [512, 1024)
  EXPECT_EQ(hist.bucket(64), 1u);
  // The median sample is 1; its bucket's limit bounds it from above.
  EXPECT_EQ(hist.quantile_bound(0.5), 1u);
  EXPECT_EQ(hist.quantile_bound(1.0), kU64Max);
  EXPECT_EQ(Histogram{}.quantile_bound(0.5), 0u);
}

TEST(Histogram, JsonRoundTripIsExactAtU64Extremes) {
  Histogram hist;
  hist.record(kU64Max);
  hist.record(0);
  const Histogram back = Histogram::from_json(hist.to_json());
  EXPECT_EQ(back.count(), 2u);
  EXPECT_EQ(back.sum(), hist.sum());  // wrapped sum survives (hex, not double)
  EXPECT_EQ(back.bucket(0), 1u);
  EXPECT_EQ(back.bucket(64), 1u);
}

// ---------------------------------------------------------------------------
// Registry merge determinism
// ---------------------------------------------------------------------------

/// A fixed pseudo-random sample stream (deterministic, no std::random).
std::vector<uint64_t> sample_stream(size_t n) {
  std::vector<uint64_t> samples;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(x >> (i % 48));  // mix magnitudes across buckets
  }
  return samples;
}

TEST(Registry, MergeIsIndependentOfWorkerPartition) {
  const std::vector<uint64_t> samples = sample_stream(257);
  std::vector<std::string> dumps;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    // Strided partition, exactly like sim::run_rounds' shard ownership.
    std::vector<Registry> per_worker(workers);
    for (size_t i = 0; i < samples.size(); ++i) {
      Registry& registry = per_worker[i % workers];
      registry.record("phase_ns", samples[i]);
      registry.add("events", samples[i] % 5);
      registry.set_gauge("last_window", 42.0);
    }
    Registry merged;
    for (const Registry& registry : per_worker) merged.merge(registry);
    dumps.push_back(merged.to_json().dump());
  }
  for (size_t i = 1; i < dumps.size(); ++i) {
    EXPECT_EQ(dumps[0], dumps[i]) << "partition " << i << " diverged";
  }
}

TEST(Registry, JsonRoundTripAndPrometheusRendering) {
  Registry registry;
  registry.add("coord.results_merged", 3);
  registry.set_gauge("coord.queue_depth", 7.0);
  registry.record("journal.fsync_us", 100);
  registry.record("journal.fsync_us", 0);

  const Registry back = Registry::from_json(registry.to_json());
  EXPECT_EQ(back.counter("coord.results_merged"), 3u);
  EXPECT_EQ(back.gauge("coord.queue_depth"), 7.0);
  ASSERT_NE(back.histogram("journal.fsync_us"), nullptr);
  EXPECT_EQ(back.histogram("journal.fsync_us")->count(), 2u);
  EXPECT_EQ(back.to_json().dump(), registry.to_json().dump());

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("sb_coord_results_merged 3"), std::string::npos);
  EXPECT_NE(text.find("sb_coord_queue_depth 7"), std::string::npos);
  EXPECT_NE(text.find("sb_journal_fsync_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace writer
// ---------------------------------------------------------------------------

struct ParsedTrace {
  util::JsonValue json;
  const util::JsonValue* events = nullptr;
};

/// Serializes the live writer through its real JSON path and re-parses.
ParsedTrace parse_current_trace() {
  ParsedTrace parsed;
  parsed.json = util::parse_json(TraceWriter::instance().to_json().dump(2));
  parsed.events = parsed.json.find("traceEvents");
  return parsed;
}

TEST(Trace, SpansFromTwoThreadsParseNestAndStayMonotone) {
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  tracer.enable();

  const auto emit = [&tracer](const char* outer) {
    tracer.set_thread_name(std::string("t-") + outer);
    for (int round = 0; round < 3; ++round) {
      const TraceSpan window(outer, "test");
      const TraceSpan inner("inner", "test",
                            {{"round", static_cast<uint64_t>(round)}});
      tracer.instant("tick", "test");
    }
  };
  std::thread other([&] { emit("worker"); });
  emit("main");
  other.join();
  tracer.disable();

  const ParsedTrace parsed = parse_current_trace();
  ASSERT_NE(parsed.events, nullptr);
  // 2 threads x (1 metadata + 3 rounds x (2 B + 2 E + 1 instant)).
  ASSERT_EQ(parsed.events->size(), 32u);

  std::map<double, std::vector<std::string>> stacks;  // tid -> open spans
  std::map<double, double> last_ts;
  for (const util::JsonValue& event : parsed.events->as_array()) {
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    const std::string& ph = event.find("ph")->as_string();
    if (ph == "M") continue;
    const double tid = event.find("tid")->as_number();
    const double ts = event.find("ts")->as_number();
    if (last_ts.count(tid) != 0) {
      EXPECT_GE(ts, last_ts[tid]) << "per-thread order must be by timestamp";
    }
    last_ts[tid] = ts;
    const std::string& name = event.find("name")->as_string();
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), name) << "spans must nest";
      stacks[tid].pop_back();
    } else {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(event.find("s")->as_string(), "t");
      // Instants fire inside both spans on their thread.
      EXPECT_EQ(stacks[tid].size(), 2u);
    }
  }
  EXPECT_EQ(last_ts.size(), 2u) << "both threads must appear in the trace";
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left a span open";
  }
  tracer.reset_for_tests();
}

TEST(Trace, DisabledWriterRecordsNothing) {
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  ASSERT_FALSE(tracer.enabled());
  tracer.begin("never", "test");
  tracer.instant("never", "test");
  tracer.set_thread_name("ghost");
  { const TraceSpan span("never", "test"); }
  tracer.end("never", "test");
  EXPECT_EQ(tracer.now_us(), 0u);
  const ParsedTrace parsed = parse_current_trace();
  ASSERT_NE(parsed.events, nullptr);
  EXPECT_EQ(parsed.events->size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, SpanLatchedAtConstructionNeverEmitsUnmatchedEnd) {
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  {
    const TraceSpan span("raced", "test");  // constructed while disabled
    tracer.enable();
  }  // destructor must not emit an "E" with no matching "B"
  tracer.disable();
  const ParsedTrace parsed = parse_current_trace();
  EXPECT_EQ(parsed.events->size(), 0u);
  tracer.reset_for_tests();
}

// A round is one rendezvous and one drain on every worker; the serial
// section's fold, integrate and decide run on whichever worker arrives
// last, so they are checked here, inside rendezvous inside window, rather
// than on every thread (trace_check --require-spans window,rendezvous,drain).
TEST(Trace, ShardSerialPhasesNestInsideRendezvous) {
  core::SessionConfig config;
  config.sim.latency = msg::LatencyModel::uniform(1, 8);
  config.sim.shards = 4;
  config.sim.shard_threads = 2;
  core::ReconfigurationSession session(lat::resolve_scenario("tower16"),
                                       config);
  ASSERT_EQ(session.simulator().shard_thread_count(), 2u);
  TraceWriter& tracer = TraceWriter::instance();
  tracer.reset_for_tests();
  tracer.enable();
  const core::SessionResult result = session.run();
  tracer.disable();
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(tracer.dropped(), 0u);

  const ParsedTrace parsed = parse_current_trace();
  ASSERT_NE(parsed.events, nullptr);
  std::map<double, std::vector<std::string>> stacks;  // tid -> open spans
  std::map<double, std::set<std::string>> opened;     // tid -> span names
  std::map<std::string, uint64_t> serial_phases;
  for (const util::JsonValue& event : parsed.events->as_array()) {
    const std::string& ph = event.find("ph")->as_string();
    if (ph != "B" && ph != "E") continue;
    const double tid = event.find("tid")->as_number();
    const std::string& name = event.find("name")->as_string();
    std::vector<std::string>& stack = stacks[tid];
    if (ph == "E") {
      ASSERT_FALSE(stack.empty());
      ASSERT_EQ(stack.back(), name);
      stack.pop_back();
      continue;
    }
    if (name == "fold" || name == "integrate" || name == "decide") {
      ++serial_phases[name];
      ASSERT_EQ(stack.size(), 2u) << name;
      EXPECT_EQ(stack[0], "window") << name;
      EXPECT_EQ(stack[1], "rendezvous") << name;
    } else if (name == "rendezvous" || name == "drain") {
      ASSERT_EQ(stack, std::vector<std::string>{"window"}) << name;
    } else if (name == "drain_shard") {
      ASSERT_EQ(stack, (std::vector<std::string>{"window", "drain"}));
    }
    stack.push_back(name);
    opened[tid].insert(name);
  }
  // One serial section per round, each folding, routing and deciding.
  EXPECT_GT(serial_phases["fold"], 0u);
  EXPECT_EQ(serial_phases["integrate"], serial_phases["fold"]);
  EXPECT_EQ(serial_phases["decide"], serial_phases["fold"]);
  ASSERT_EQ(opened.size(), 2u) << "both workers must emit spans";
  for (const auto& [tid, names] : opened) {
    for (const char* name : {"window", "rendezvous", "drain"}) {
      EXPECT_EQ(names.count(name), 1u) << "tid " << tid << " lacks " << name;
    }
  }
  tracer.reset_for_tests();
}

}  // namespace
}  // namespace sb::obs
