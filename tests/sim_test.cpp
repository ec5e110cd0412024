// Tests for the discrete-event simulator: queues, scheduling, messaging,
// motion execution, neighbor-change notifications, determinism.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "lattice/scenario.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/fmt.hpp"

namespace sb::sim {
namespace {

using lat::BlockId;
using lat::Direction;
using lat::Vec2;

// ---------------------------------------------------------------------------
// Event queues
// ---------------------------------------------------------------------------

class ProbeEvent final : public Event {
 public:
  ProbeEvent(int label, std::vector<int>* sink)
      : label_(label), sink_(sink) {}
  [[nodiscard]] std::string_view kind() const override { return "Probe"; }
  void execute(Simulator&) override { sink_->push_back(label_); }
  [[nodiscard]] int label() const { return label_; }

 private:
  int label_;
  std::vector<int>* sink_;
};

/// Wraps a ProbeEvent (label carrier) into a by-value record.
EventRecord probe(SimTime time, int label, std::vector<int>* sink) {
  return EventRecord::wrap(time, std::make_unique<ProbeEvent>(label, sink));
}

int label_of(const EventRecord& record) {
  return static_cast<const ProbeEvent&>(record.external()).label();
}

// Every case runs against the simulator's calendar queue and the reference
// binary heap: both must honour the same contract.
template <typename Queue>
class QueueTest : public ::testing::Test {};

struct QueueNames {
  template <typename Queue>
  static std::string GetName(int) {
    return std::is_same_v<Queue, EventQueue> ? "Calendar" : "BinaryHeap";
  }
};

using Queues = ::testing::Types<EventQueue, BinaryHeapEventQueue>;
TYPED_TEST_SUITE(QueueTest, Queues, QueueNames);

TYPED_TEST(QueueTest, PopsInTimeOrder) {
  TypeParam queue;
  std::vector<int> sink;
  queue.push(probe(30, 3, &sink));
  queue.push(probe(10, 1, &sink));
  queue.push(probe(20, 2, &sink));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop().time, 10u);
  EXPECT_EQ(queue.pop().time, 20u);
  EXPECT_EQ(queue.pop().time, 30u);
  EXPECT_TRUE(queue.empty());
}

TYPED_TEST(QueueTest, TiesBreakByInsertionOrder) {
  TypeParam queue;
  std::vector<int> sink;
  for (int i = 0; i < 10; ++i) {
    queue.push(probe(5, i, &sink));
  }
  for (int i = 0; i < 10; ++i) {
    const EventRecord record = queue.pop();
    EXPECT_EQ(label_of(record), i);
  }
}

TYPED_TEST(QueueTest, MixedRecordKindsOrderByTimeThenInsertion) {
  TypeParam queue;
  std::vector<int> sink;
  queue.push(EventRecord::timer(5, lat::BlockId{1}, 42));
  queue.push(probe(5, 1, &sink));
  queue.push(EventRecord::start(2, lat::BlockId{1}));
  EXPECT_EQ(queue.pop().kind, EventKind::kStart);
  EXPECT_EQ(queue.pop().kind, EventKind::kTimer);  // same time, pushed first
  EXPECT_EQ(queue.pop().kind, EventKind::kExternal);
}

TYPED_TEST(QueueTest, PeekDoesNotRemove) {
  TypeParam queue;
  std::vector<int> sink;
  EXPECT_EQ(queue.peek(), nullptr);
  queue.push(probe(7, 0, &sink));
  ASSERT_NE(queue.peek(), nullptr);
  EXPECT_EQ(queue.peek()->time, 7u);
  EXPECT_EQ(queue.size(), 1u);
}

TYPED_TEST(QueueTest, InterleavedPushPop) {
  TypeParam queue;
  std::vector<int> sink;
  queue.push(probe(10, 1, &sink));
  queue.push(probe(5, 0, &sink));
  EXPECT_EQ(queue.pop().time, 5u);
  queue.push(probe(7, 2, &sink));  // before the pending 10, after the pop
  queue.push(probe(5, 3, &sink));  // on the popped tick itself
  EXPECT_EQ(label_of(queue.pop()), 3);
  EXPECT_EQ(label_of(queue.pop()), 2);
  EXPECT_EQ(label_of(queue.pop()), 1);
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Calendar ring window
//
// The calendar keeps a kRingSize-tick ring for the near future and spills
// later ticks into an ordered overflow. The boundary — ticks landing
// exactly on the window's end — is where a push must spill, and where
// overflow records must migrate back as the window advances. Pop order
// must match the binary heap bit for bit either way.
// ---------------------------------------------------------------------------

TEST(CalendarRing, PushExactlyOnHorizonSpillsAndPopsInOrder) {
  constexpr SimTime kHorizon = EventQueue::kRingSize;  // window starts at 0
  EventQueue queue;
  std::vector<int> sink;
  queue.push(probe(kHorizon, 2, &sink));      // first tick beyond the ring
  queue.push(probe(kHorizon - 1, 1, &sink));  // last in-ring tick
  queue.push(probe(kHorizon + 1, 3, &sink));  // deeper overflow
  queue.push(probe(0, 0, &sink));
  ASSERT_EQ(queue.size(), 4u);
  EXPECT_EQ(label_of(queue.pop()), 0);
  EXPECT_EQ(label_of(queue.pop()), 1);
  // Popping t = kHorizon - 1 moved the window; the horizon events migrate
  // into the ring and pop in (time, seq) order.
  EXPECT_EQ(label_of(queue.pop()), 2);
  EXPECT_EQ(label_of(queue.pop()), 3);
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarRing, SameTickSplitAcrossRingAndOverflowKeepsSeqOrder) {
  constexpr SimTime kHorizon = EventQueue::kRingSize;
  EventQueue queue;
  std::vector<int> sink;
  // Same future timestamp, pushed while it is beyond the horizon...
  queue.push(probe(kHorizon, 0, &sink));
  queue.push(probe(kHorizon, 1, &sink));
  // ...then the window advances (pop at t=1) so kHorizon enters the ring,
  // and two more records for the same tick land in the ring.
  queue.push(probe(1, 99, &sink));
  EXPECT_EQ(label_of(queue.pop()), 99);
  queue.push(probe(kHorizon, 2, &sink));
  queue.push(probe(kHorizon, 3, &sink));
  for (int expected = 0; expected < 4; ++expected) {
    const EventRecord record = queue.pop();
    EXPECT_EQ(record.time, kHorizon);
    EXPECT_EQ(label_of(record), expected) << "seq order broken at horizon";
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarRingDeath, PushBelowTheLastPoppedTickAborts) {
  // The simulator never schedules before a queue's clock, so the calendar
  // has no way back: its window starts at the last popped tick.
  EventQueue queue;
  std::vector<int> sink;
  queue.push(probe(100, 0, &sink));
  EXPECT_EQ(label_of(queue.pop()), 0);  // window starts at 100
  EXPECT_DEATH(queue.push(probe(50, 1, &sink)),
               "below the queue's last popped tick");
}

TEST(CalendarRing, DeepBucketsChainAcrossChunks) {
  // Thousands of records on a few ticks: each bucket spans many storage
  // chunks, and draining one bucket hands its chunks to the next.
  EventQueue queue;
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 5000; ++i) {
      queue.push(EventRecord::timer(round * 10 + i % 3, lat::BlockId{1}, i));
    }
    for (uint64_t tick = 0; tick < 3; ++tick) {
      for (uint64_t i = tick; i < 5000; i += 3) {
        const EventRecord record = queue.pop();
        ASSERT_EQ(record.time, round * 10 + tick);
        ASSERT_EQ(record.tag(), i);
      }
    }
    EXPECT_TRUE(queue.empty());
  }
}

/// Body of the deliveries the queue differential pushes: their label.
struct QueueProbeMsg {
  static constexpr uint8_t kTag = 1;
  static constexpr std::string_view kName = "QueueProbe";
  static constexpr uint8_t kWireBytes = sizeof(uint64_t);
  uint64_t label = 0;
};

/// (time, seq, label) of a record; the label rides in the timer tag or in
/// the delivery's QueueProbeMsg body.
struct Popped {
  SimTime time;
  uint64_t seq;
  uint64_t label;
  bool operator==(const Popped&) const = default;
};

Popped popped(const EventRecord& record) {
  const uint64_t label =
      record.kind == EventKind::kDelivery
          ? record.message().unpack<QueueProbeMsg>().label
          : record.tag();
  return {record.time, record.seq, label};
}

TEST(CalendarRing, MatchesBinaryHeapOverSimulatorPatterns) {
  // A long randomized differential over the schedules the simulator
  // produces — 1-8 tick sends, 10-tick motion landings, same-tick work,
  // timers and latency tails past the ring, ticks straddling the ring's
  // end, each at or after the last popped tick. Both queues see the same
  // operations, so seqs agree, and every pop and peek must agree on
  // (time, seq, label).
  BinaryHeapEventQueue heap;
  EventQueue calendar;
  Rng rng(0xCA1E17DA);
  uint64_t label = 0;
  SimTime now = 0;
  const auto push_both = [&](SimTime t) {
    const lat::BlockId target{static_cast<uint32_t>(rng.next_below(8)) + 1};
    if (rng.next_below(4) == 0) {
      const lat::BlockId sender{static_cast<uint32_t>(rng.next_below(8)) + 1};
      const msg::Message probe = msg::Message::pack(QueueProbeMsg{label});
      heap.push(EventRecord::delivery(t, sender, target, probe));
      calendar.push(EventRecord::delivery(t, sender, target, probe));
    } else {
      heap.push(EventRecord::timer(t, target, label));
      calendar.push(EventRecord::timer(t, target, label));
    }
    ++label;
  };
  const auto next_time = [&]() -> SimTime {
    const uint64_t pattern = rng.next_below(100);
    if (pattern < 60) return now + 1 + rng.next_below(8);  // link latency
    if (pattern < 72) return now + 10;                     // motion landing
    if (pattern < 80) return now;                          // same tick
    if (pattern < 88) {                                    // ring's far end
      return now + EventQueue::kRingSize - 2 + rng.next_below(5);
    }
    if (pattern < 94) return now + 64 + rng.next_below(2000);  // timers
    SimTime tail = 1;  // exponential-style tail
    while (rng.next_below(4) != 0 && tail < 4096) tail *= 2;
    return now + tail + rng.next_below(tail);
  };

  constexpr int kSteps = 200'000;
  uint64_t pops = 0;
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t pushes = rng.next_below(4);
    for (uint64_t i = 0; i < pushes; ++i) push_both(next_time());
    const uint64_t pop_count = rng.next_below(4);
    for (uint64_t i = 0; i < pop_count && !heap.empty(); ++i) {
      ASSERT_NE(calendar.peek(), nullptr);
      ASSERT_EQ(popped(*calendar.peek()), popped(*heap.peek()))
          << "peek diverged at step " << step;
      const EventRecord a = heap.pop();
      const EventRecord b = calendar.pop();
      ASSERT_EQ(popped(a), popped(b)) << "pop diverged at step " << step;
      now = a.time;
      ++pops;
    }
    ASSERT_EQ(heap.size(), calendar.size());
  }
  while (!heap.empty()) {
    const EventRecord a = heap.pop();
    const EventRecord b = calendar.pop();
    ASSERT_EQ(popped(a), popped(b));
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.peek(), nullptr);
  EXPECT_GT(pops, 100'000u);
}

// ---------------------------------------------------------------------------
// Look-ahead (EventQueue::peek_ahead)
//
// The drain prefetches the receiver of the record k places behind the head
// in the head tick's bucket, so that record must be the one popped k pops
// later, and the look-ahead must stop at the bucket's tail.
// ---------------------------------------------------------------------------

/// Pops `queue` dry, reading peek_ahead(k) before every pop: a record it
/// names must be the one popped k pops later, and it must be null exactly
/// when the head's tick has k or fewer records left. `on_pop` may push
/// records for ticks after the popped one, as a drain does.
void expect_look_ahead_matches_pops(
    EventQueue& queue, uint32_t k,
    const std::function<void(const EventRecord&)>& on_pop = {}) {
  std::vector<std::optional<Popped>> ahead;
  std::vector<Popped> pops;
  while (!queue.empty()) {
    const EventRecord* next = queue.peek_ahead(k);
    ahead.push_back(next != nullptr ? std::optional(popped(*next))
                                    : std::nullopt);
    const EventRecord record = queue.pop();
    pops.push_back(popped(record));
    if (on_pop) on_pop(record);
  }
  for (size_t i = 0; i < pops.size(); ++i) {
    if (i + k < pops.size() && pops[i + k].time == pops[i].time) {
      ASSERT_TRUE(ahead[i].has_value()) << "k=" << k << " pop " << i;
      EXPECT_EQ(*ahead[i], pops[i + k]) << "k=" << k << " pop " << i;
    } else {
      EXPECT_FALSE(ahead[i].has_value()) << "k=" << k << " pop " << i;
    }
  }
}

TEST(QueueLookAhead, CrossesChunkBoundariesAndStopsAtTheBucketTail) {
  // 200 records on one tick span four 64-record chunks; the next tick
  // holds fewer than k records. k = 64 and 130 skip whole chunks.
  for (const uint32_t k : {1u, 8u, 63u, 64u, 65u, 130u}) {
    EventQueue queue;
    uint64_t label = 0;
    for (int i = 0; i < 200; ++i) {
      queue.push(EventRecord::timer(5, BlockId{1}, label++));
    }
    for (int i = 0; i < 3; ++i) {
      queue.push(EventRecord::timer(6, BlockId{1}, label++));
    }
    queue.push(EventRecord::timer(9, BlockId{1}, label++));
    expect_look_ahead_matches_pops(queue, k);
  }
}

TEST(QueueLookAhead, EmptyQueueHasNone) {
  EventQueue queue;
  EXPECT_EQ(queue.peek_ahead(0), nullptr);
  EXPECT_EQ(queue.peek_ahead(8), nullptr);
  queue.push(EventRecord::timer(3, BlockId{1}, 7));
  EXPECT_EQ(queue.peek_ahead(0), queue.peek());
  EXPECT_EQ(queue.peek_ahead(1), nullptr);
  (void)queue.pop();
  EXPECT_EQ(queue.peek_ahead(0), nullptr);
  EXPECT_EQ(queue.peek_ahead(8), nullptr);
}

TEST(QueueLookAhead, FollowsRecordsMigratedFromTheOverflow) {
  constexpr SimTime kHorizon = EventQueue::kRingSize;  // window starts at 0
  EventQueue queue;
  uint64_t label = 0;
  // 70 records one tick past the ring wait in the overflow, where the
  // look-ahead sees none of them.
  for (int i = 0; i < 70; ++i) {
    queue.push(EventRecord::timer(kHorizon, BlockId{1}, label++));
  }
  queue.push(EventRecord::timer(1, BlockId{1}, label++));
  EXPECT_EQ(queue.peek_ahead(0), queue.peek());
  EXPECT_EQ(queue.peek_ahead(1), nullptr);
  // Popping t=1 moves the window: the 70 migrate into the ring, two chunks
  // of one bucket, and ten more pushes for that tick join them behind.
  EXPECT_EQ(queue.pop().time, 1u);
  for (int i = 0; i < 10; ++i) {
    queue.push(EventRecord::timer(kHorizon, BlockId{1}, label++));
  }
  expect_look_ahead_matches_pops(queue, 8);

  // A head in the overflow (the ring empty) has no look-ahead either.
  for (int i = 0; i < 20; ++i) {
    queue.push(EventRecord::timer(10 * kHorizon, BlockId{1}, label++));
  }
  EXPECT_NE(queue.peek(), nullptr);
  EXPECT_EQ(queue.peek_ahead(0), nullptr);
  EXPECT_EQ(queue.pop().time, 10 * kHorizon);  // migrates the other 19
  expect_look_ahead_matches_pops(queue, 8);
}

TEST(QueueLookAhead, HoldsWhileTheDrainPushesLaterTicks) {
  // A flood: each of the first 5 000 pops sends two records 1-8 ticks on.
  EventQueue queue;
  Rng rng(0x100CA4EADULL);
  uint64_t label = 0;
  for (int i = 0; i < 100; ++i) {
    queue.push(EventRecord::timer(0, BlockId{1}, label++));
  }
  expect_look_ahead_matches_pops(queue, 8, [&](const EventRecord& record) {
    if (label >= 5000) return;
    for (int i = 0; i < 2; ++i) {
      queue.push(EventRecord::timer(record.time + 1 + rng.next_below(8),
                                    BlockId{1}, label++));
    }
  });
  EXPECT_GE(label, 5000u);
}

// ---------------------------------------------------------------------------
// Test module
// ---------------------------------------------------------------------------

struct PingMsg {
  static constexpr uint8_t kTag = 1;
  static constexpr std::string_view kName = "Ping";
  static constexpr uint8_t kWireBytes = sizeof(int);
  int hops = 0;
};

/// Records everything that happens to it; can be told to forward pings.
class RecorderModule final : public Module {
 public:
  explicit RecorderModule(BlockId id, bool forward = false)
      : Module(id), forward_(forward) {}

  void on_start() override { ++starts; }
  void on_message(Direction from, const msg::Message& m) override {
    ASSERT_EQ(m.tag(), PingMsg::kTag);
    PingMsg ping = m.unpack<PingMsg>();
    received.emplace_back(from, ping.hops);
    if (forward_ && ping.hops > 0) {
      ping.hops -= 1;
      send(opposite(from), ping);
    }
  }
  void on_timer(uint64_t tag) override { timer_tags.push_back(tag); }
  void on_motion_complete() override { ++motions; }
  void on_neighbor_change(Direction side, BlockId now) override {
    neighbor_changes.emplace_back(side, now);
  }

  int starts = 0;
  int motions = 0;
  /// (arrival side, the ping's remaining hops) per delivered message.
  std::vector<std::pair<Direction, int>> received;
  std::vector<uint64_t> timer_tags;
  std::vector<std::pair<Direction, BlockId>> neighbor_changes;

 private:
  bool forward_;
};

World make_world(std::initializer_list<Vec2> cells, int32_t w = 8,
                 int32_t h = 8) {
  World world(w, h, motion::RuleLibrary::standard());
  uint32_t id = 1;
  for (const Vec2 cell : cells) world.grid().place(BlockId{id++}, cell);
  return world;
}

/// Schedules a single send from a module at t=0.
class SendAtStart final : public Event {
 public:
  SendAtStart(Module* module, Direction side, int hops = 0)
      : module_(module), side_(side), hops_(hops) {}
  [[nodiscard]] std::string_view kind() const override { return "Kick"; }
  void execute(Simulator& sim) override {
    sim.send_from(*module_, side_, PingMsg{hops_});
  }

 private:
  Module* module_;
  Direction side_;
  int hops_;
};

// ---------------------------------------------------------------------------
// Simulator basics
// ---------------------------------------------------------------------------

TEST(Simulator, StartsAllModules) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  auto& b = sim.add_module<RecorderModule>(BlockId{2});
  sim.start_all_modules();
  EXPECT_EQ(sim.run(), StopReason::kQueueEmpty);
  EXPECT_EQ(a.starts, 1);
  EXPECT_EQ(b.starts, 1);
  EXPECT_EQ(sim.stats().events_processed, 2u);
}

TEST(Simulator, NeighborTableInitializedFromGrid) {
  Simulator sim(make_world({{1, 1}, {2, 1}, {1, 2}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  EXPECT_EQ(a.neighbor_table().neighbor(Direction::kEast), BlockId{2});
  EXPECT_EQ(a.neighbor_table().neighbor(Direction::kNorth), BlockId{3});
  EXPECT_EQ(a.neighbor_table().neighbor(Direction::kSouth),
            lat::kInvalidBlock);
  EXPECT_EQ(a.neighbor_table().attached_count(), 2);
}

TEST(Simulator, MessageDeliveryWithFixedLatency) {
  SimConfig config;
  config.latency = msg::LatencyModel::fixed(5);
  Simulator sim(make_world({{1, 1}, {2, 1}}), config);
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  auto& b = sim.add_module<RecorderModule>(BlockId{2});

  sim.enable_event_trace();
  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kEast));
  EXPECT_EQ(sim.run(), StopReason::kQueueEmpty);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, Direction::kWest);  // arrived on west port
  EXPECT_EQ(sim.now(), 5u);                          // latency respected
  EXPECT_EQ(sim.stats().messages_sent(), 1u);
  EXPECT_EQ(sim.stats().messages_delivered, 1u);
  // One stream in execution order: the sequential queue (s=1) runs the
  // send, then shard 0 runs the delivery, whose record carries the payload
  // size as its tag.
  EXPECT_EQ(sim.event_trace(),
            (std::vector<std::string>{
                fmt("s=1 t=0 seq=0 Kick a={} b={} tag=0",
                    lat::kInvalidBlock.value, lat::kInvalidBlock.value),
                fmt("s=0 t=5 seq=0 Delivery a=1 b=2 tag={}", sizeof(int))}));
}

TEST(Simulator, SendWithoutNeighborIsDropped) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  sim.add_module<RecorderModule>(BlockId{2});
  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kNorth));
  sim.run();
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
  EXPECT_EQ(sim.stats().messages_delivered, 0u);
}

TEST(Simulator, PingChainTraversesRow) {
  // Five modules in a row; a ping forwarded with hops=3 crosses 4 links.
  SimConfig config;
  config.latency = msg::LatencyModel::fixed(2);
  Simulator sim(make_world({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}),
                config);
  std::vector<RecorderModule*> modules;
  for (uint32_t id = 1; id <= 5; ++id) {
    modules.push_back(
        &sim.add_module<RecorderModule>(BlockId{id}, /*forward=*/true));
  }
  sim.schedule(
      0, std::make_unique<SendAtStart>(modules[0], Direction::kEast, 3));
  sim.run();
  EXPECT_EQ(modules[1]->received.size(), 1u);
  EXPECT_EQ(modules[2]->received.size(), 1u);
  EXPECT_EQ(modules[3]->received.size(), 1u);
  EXPECT_EQ(modules[4]->received.size(), 1u);
  EXPECT_EQ(modules[1]->received[0].second, 3);  // hops left on arrival
  EXPECT_EQ(modules[4]->received[0].second, 0);
  EXPECT_EQ(sim.now(), 8u);  // 4 links x 2 ticks
  EXPECT_EQ(sim.stats().messages_by_tag[PingMsg::kTag], 4u);
  EXPECT_EQ(sim.stats().messages_sent(), 4u);
}

TEST(Simulator, TimersFireWithTags) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  sim.timer_for(a, 10, 42);
  sim.timer_for(a, 5, 7);
  sim.run();
  ASSERT_EQ(a.timer_tags.size(), 2u);
  EXPECT_EQ(a.timer_tags[0], 7u);  // earlier timer first
  EXPECT_EQ(a.timer_tags[1], 42u);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunLimits) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  for (int i = 0; i < 10; ++i) {
    sim.timer_for(a, static_cast<Ticks>(i + 1), 0);
  }
  RunLimits limits;
  limits.max_events = 3;
  EXPECT_EQ(sim.run(limits), StopReason::kEventLimit);
  EXPECT_EQ(a.timer_tags.size(), 3u);

  RunLimits time_limit;
  time_limit.until = 6;
  EXPECT_EQ(sim.run(time_limit), StopReason::kTimeLimit);
  EXPECT_EQ(sim.now(), 6u);
}

TEST(Simulator, HaltStopsRun) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  class Halter final : public Event {
   public:
    [[nodiscard]] std::string_view kind() const override { return "Halt"; }
    void execute(Simulator& sim) override { sim.halt(); }
  };
  sim.timer_for(a, 100, 0);
  sim.schedule(3, std::make_unique<Halter>());
  EXPECT_EQ(sim.run(), StopReason::kHalted);
  EXPECT_EQ(sim.pending_events(), 1u);  // the far timer still queued
}

// ---------------------------------------------------------------------------
// One-shard windows
//
// One shard needs no lookahead: its window ends at the next grid mutation,
// one its own drain schedules included, at the time limit, exactly at the
// event budget, and right after the event that halts the run.
// ---------------------------------------------------------------------------

/// Requests one motion from on_start — from inside a window — and logs
/// what reaches it.
class HopOnStartModule final : public Module {
 public:
  HopOnStartModule(BlockId id, motion::RuleApplication app)
      : Module(id), app_(app) {}
  void on_start() override {
    log.push_back(fmt("start t={}", sim().now()));
    start_motion(app_);
  }
  void on_message(Direction from, const msg::Message&) override {
    log.push_back(fmt("message from side {} t={}", static_cast<int>(from),
                      sim().now()));
  }
  void on_motion_complete() override {
    log.push_back(fmt("landed t={}", sim().now()));
  }

  std::vector<std::string> log;

 private:
  motion::RuleApplication app_;
};

TEST(OneShardWindow, MotionFromTheWindowLandsBeforeASameTickDelivery) {
  // The support's message to the mover goes out at t=0, before the window
  // in which the mover's start requests its hop; both are due at t=3. The
  // window ends at the landing, so the hop runs first and the delivery
  // sees the post-move contacts: the support is no longer beside the
  // mover, and the message is lost.
  SimConfig config;
  config.latency = msg::LatencyModel::fixed(3);
  config.motion_duration = 3;
  Simulator sim(make_world({{1, 1}, {1, 0}, {2, 0}}), config);
  const motion::MotionRule* rule = sim.world().rules().find("slide_ES");
  auto& mover = sim.add_module<HopOnStartModule>(
      BlockId{1}, motion::RuleApplication{rule, {1, 1}, 0});
  auto& support = sim.add_module<RecorderModule>(BlockId{2});
  sim.add_module<RecorderModule>(BlockId{3});
  sim.schedule(0, std::make_unique<SendAtStart>(&support, Direction::kNorth));
  sim.start_module(BlockId{1});

  EXPECT_EQ(sim.run(), StopReason::kQueueEmpty);
  EXPECT_EQ(sim.world().view().at({2, 1}), BlockId{1});
  EXPECT_EQ(sim.now(), 3u);
  EXPECT_EQ(mover.log,
            (std::vector<std::string>{"start t=0", "landed t=3"}));
  EXPECT_EQ(sim.stats().messages_sent(), 1u);
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
  EXPECT_EQ(sim.stats().messages_delivered, 0u);
}

/// Records its timers and halts the run from the one tagged `halt_tag`.
class HaltOnTimerModule final : public Module {
 public:
  HaltOnTimerModule(BlockId id, uint64_t halt_tag)
      : Module(id), halt_tag_(halt_tag) {}
  void on_message(Direction, const msg::Message&) override {}
  void on_timer(uint64_t tag) override {
    fired.push_back(tag);
    if (tag == halt_tag_) sim().halt();
  }

  std::vector<uint64_t> fired;

 private:
  uint64_t halt_tag_;
};

TEST(OneShardWindow, HaltingEventIsTheLastProcessed) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& module =
      sim.add_module<HaltOnTimerModule>(BlockId{1}, /*halt_tag=*/5);
  // Tags 1-5 at ticks 1-5, tags 6 and 7 on tick 5 behind the halting one,
  // tag 8 later.
  for (uint64_t tag = 1; tag <= 8; ++tag) {
    sim.timer_for(module, tag <= 5 ? tag : (tag == 8 ? 9 : 5), tag);
  }
  EXPECT_EQ(sim.run(), StopReason::kHalted);
  EXPECT_EQ(module.fired, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.stats().events_processed, 5u);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.now(), 5u);
  EXPECT_EQ(sim.run(), StopReason::kHalted);  // a halted run stays halted
  EXPECT_EQ(sim.stats().events_processed, 5u);
}

TEST(OneShardWindow, BudgetIsSpentExactlyAndCheckedBeforeTheEmptyQueue) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  for (uint64_t tag = 0; tag < 10; ++tag) {
    sim.timer_for(a, 1 + tag / 3, tag);  // three timers per tick
  }
  uint64_t processed = 0;
  for (const uint64_t budget : {1, 2, 3, 4}) {
    EXPECT_EQ(sim.run({budget, kTimeMax}), StopReason::kEventLimit);
    processed += budget;
    EXPECT_EQ(a.timer_tags.size(), processed);
    EXPECT_EQ(sim.stats().events_processed, processed);
  }
  // The last run ended on its budget and on the last event alike.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run({1, kTimeMax}), StopReason::kQueueEmpty);
  EXPECT_EQ(sim.stats().events_processed, 10u);
}

TEST(Simulator, ModuleLookup) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  sim.add_module<RecorderModule>(BlockId{1});
  EXPECT_NE(sim.find_module(BlockId{1}), nullptr);
  EXPECT_EQ(sim.find_module(BlockId{9}), nullptr);
  EXPECT_EQ(sim.module_count(), 1u);
  EXPECT_EQ(sim.module_as<RecorderModule>(BlockId{1}).id(), BlockId{1});
}

TEST(SimulatorDeath, ModuleWithoutGridBlockAborts) {
  Simulator sim(make_world({{1, 1}}));
  EXPECT_DEATH(sim.add_module<RecorderModule>(BlockId{9}),
               "placed on the grid");
}

// ---------------------------------------------------------------------------
// Module slots
//
// Every program is built in place in its id's slot; chunks of
// Simulator::kModuleChunkIds slots are allocated as ids first register,
// and the world's tag column alone says which slots hold a program.
// ---------------------------------------------------------------------------

TEST(ModuleSlots, HotJoinIntoANewChunkMovesNoProgram) {
  // tower16's blocks with every third id left without a program, then a
  // block hot-joined as id 5000, in a chunk nothing has allocated yet.
  const lat::Scenario tower = lat::resolve_scenario("tower16");
  World world(tower.width, tower.height, motion::RuleLibrary::standard());
  for (const auto& [id, pos] : tower.blocks) world.grid().place(id, pos);
  Simulator sim(std::move(world));
  std::vector<std::pair<BlockId, RecorderModule*>> programs;
  for (const auto& [id, pos] : tower.blocks) {
    ASSERT_LT(id.value, Simulator::kModuleChunkIds);
    if (id.value % 3 == 0) continue;
    programs.emplace_back(id, &sim.add_module<RecorderModule>(id));
  }
  sim.start_all_modules();
  sim.run();

  // A free cell beside a block that has a program.
  const lat::WorldView view = sim.world().view();
  std::optional<Vec2> site;
  BlockId host;
  for (const auto& [id, module] : programs) {
    for (const Direction d : lat::all_directions()) {
      const Vec2 cell = view.position_of(id) + delta(d);
      if (!site && view.in_bounds(cell) && !view.occupied(cell)) {
        site = cell;
        host = id;
      }
    }
  }
  ASSERT_TRUE(site.has_value());
  const BlockId joiner{5000};
  sim.world().grid().place(joiner, *site);
  auto& joined = sim.add_module<RecorderModule>(joiner);
  sim.notify_cells_changed({*site});
  sim.start_module(joiner);
  sim.run();

  EXPECT_EQ(joined.starts, 1);
  EXPECT_EQ(sim.find_module(joiner), &joined);
  EXPECT_EQ(sim.module_count(), programs.size() + 1);
  for (const auto& [id, module] : programs) {
    EXPECT_EQ(sim.find_module(id), module) << id;
    EXPECT_EQ(module->id(), id);
    EXPECT_EQ(module->starts, 1) << id;
  }
  const auto* neighbour =
      static_cast<const RecorderModule*>(sim.find_module(host));
  ASSERT_FALSE(neighbour->neighbor_changes.empty());
  EXPECT_EQ(neighbour->neighbor_changes.back().second, joiner);
}

/// Logs its id when destroyed.
class CountingModule final : public Module {
 public:
  CountingModule(BlockId id, std::vector<uint32_t>* destroyed)
      : Module(id), destroyed_(destroyed) {}
  CountingModule(const CountingModule&) = delete;
  CountingModule& operator=(const CountingModule&) = delete;
  ~CountingModule() override { destroyed_->push_back(id().value); }
  void on_message(Direction, const msg::Message&) override {}

 private:
  std::vector<uint32_t>* destroyed_;
};

TEST(ModuleSlots, ProgramsAreDestroyedOnceInIdOrder) {
  std::vector<uint32_t> destroyed;
  {
    // Block 2 stays without a program; 4 is killed; 700 hot-joins.
    Simulator sim(make_world({{1, 1}, {2, 1}, {3, 1}, {4, 1}}));
    for (const uint32_t id : {3u, 1u, 4u}) {
      sim.add_module<CountingModule>(BlockId{id}, &destroyed);
    }
    sim.start_all_modules();
    sim.run();
    sim.kill_module(BlockId{4});
    sim.world().grid().place(BlockId{700}, {5, 1});
    sim.add_module<CountingModule>(BlockId{700}, &destroyed);
    sim.notify_cells_changed({{5, 1}});
    sim.start_module(BlockId{700});
    sim.run();
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<uint32_t>{1, 3, 4, 700}));
}

TEST(ModuleSlots, FindModuleIsNullWhereNoProgramIs) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& only = sim.add_module<RecorderModule>(BlockId{1});
  EXPECT_EQ(sim.find_module(BlockId{1}), &only);
  // Inside the allocated chunk: placed without a program, and never placed.
  EXPECT_EQ(sim.find_module(BlockId{2}), nullptr);
  EXPECT_EQ(sim.find_module(BlockId{0}), nullptr);
  EXPECT_EQ(sim.find_module(BlockId{Simulator::kModuleChunkIds - 1}),
            nullptr);
  // Past the chunk table, and the invalid id.
  EXPECT_EQ(sim.find_module(BlockId{Simulator::kModuleChunkIds}), nullptr);
  EXPECT_EQ(sim.find_module(BlockId{1u << 25}), nullptr);
  EXPECT_EQ(sim.find_module(lat::kInvalidBlock), nullptr);
}

TEST(ModuleSlots, ProgramsAreLineAlignedAndStepBySlotAcrossAChunkEdge) {
  // A row of ids 250..261 straddles the edge between chunks 0 and 1, and
  // a hot-join opens chunk 19 (id 5000). Every program starts a cache line,
  // and inside each chunk consecutive ids sit one slot apart, on both sides
  // of the edge between ids 255 and 256.
  static_assert(Simulator::kModuleSlotBytes == 2 * Simulator::kModuleSlotAlign);
  World world(16, 4, motion::RuleLibrary::standard());
  for (uint32_t id = 250; id <= 261; ++id) {
    world.grid().place(BlockId{id}, {static_cast<int32_t>(id - 248), 1});
  }
  Simulator sim(std::move(world));
  for (uint32_t id = 250; id <= 261; ++id) {
    sim.add_module<RecorderModule>(BlockId{id});
  }
  sim.world().grid().place(BlockId{5000}, {2, 2});
  sim.add_module<RecorderModule>(BlockId{5000});
  sim.notify_cells_changed({{2, 2}});

  const auto address = [&](uint32_t id) {
    return reinterpret_cast<uintptr_t>(sim.find_module(BlockId{id}));
  };
  size_t programs = 0;
  sim.for_each_module([&](Module& module) {
    ++programs;
    const auto at = reinterpret_cast<uintptr_t>(&module);
    EXPECT_EQ(at % Simulator::kModuleSlotAlign, 0u) << module.id();
  });
  EXPECT_EQ(programs, 13u);
  for (uint32_t id = 250; id < 261; ++id) {
    if ((id + 1) % Simulator::kModuleChunkIds == 0) continue;  // chunk edge
    EXPECT_EQ(address(id + 1) - address(id), Simulator::kModuleSlotBytes)
        << id;
  }
  EXPECT_EQ(address(255) - address(250), 5 * Simulator::kModuleSlotBytes);
  EXPECT_EQ(address(261) - address(256), 5 * Simulator::kModuleSlotBytes);
}

/// Dies in its constructor, so a death test that expects a precondition's
/// message shows that add_module built nothing before checking.
class DiesWhenBuiltModule final : public Module {
 public:
  explicit DiesWhenBuiltModule(BlockId id) : Module(id) {
    std::fputs("a program was built in the slot\n", stderr);
    std::abort();
  }
  void on_message(Direction, const msg::Message&) override {}
};

TEST(SimulatorDeath, DuplicateRegistrationDiesBeforeBuilding) {
  Simulator sim(make_world({{1, 1}}));
  sim.add_module<RecorderModule>(BlockId{1});
  EXPECT_DEATH(sim.add_module<DiesWhenBuiltModule>(BlockId{1}),
               "already registered");
}

TEST(SimulatorDeath, UnplacedRegistrationDiesBeforeBuilding) {
  Simulator sim(make_world({{1, 1}}));
  EXPECT_DEATH(sim.add_module<DiesWhenBuiltModule>(BlockId{9}),
               "placed on the grid");
}

// ---------------------------------------------------------------------------
// Motion through the simulator
// ---------------------------------------------------------------------------

TEST(Simulator, MotionCompletesAndNotifies) {
  SimConfig config;
  config.motion_duration = 7;
  // slide_ES setup: mover (1,1) over supports (1,0),(2,0).
  Simulator sim(make_world({{1, 1}, {1, 0}, {2, 0}}), config);
  auto& mover = sim.add_module<RecorderModule>(BlockId{1});
  auto& support_a = sim.add_module<RecorderModule>(BlockId{2});
  auto& support_b = sim.add_module<RecorderModule>(BlockId{3});

  const motion::MotionRule* rule = sim.world().rules().find("slide_ES");
  motion::RuleApplication app{rule, {1, 1}, 0};
  sim.start_motion_for(mover, app);
  sim.run();

  EXPECT_EQ(sim.world().view().at({2, 1}), BlockId{1});
  EXPECT_EQ(mover.motions, 1);
  EXPECT_EQ(sim.now(), 7u);
  EXPECT_EQ(sim.stats().motions_completed, 1u);
  EXPECT_EQ(sim.world().elementary_moves(), 1u);

  // Neighbor updates: support (1,0) lost its north neighbor; support (2,0)
  // gained one; the mover's own table moved with it.
  ASSERT_FALSE(support_a.neighbor_changes.empty());
  EXPECT_EQ(support_a.neighbor_table().neighbor(Direction::kNorth),
            lat::kInvalidBlock);
  EXPECT_EQ(support_b.neighbor_table().neighbor(Direction::kNorth),
            BlockId{1});
  EXPECT_EQ(mover.neighbor_table().neighbor(Direction::kSouth), BlockId{3});
}

TEST(Simulator, InvalidMotionIsRejectedNotStarted) {
  // A physically impossible request is rejected gracefully (the world can
  // change between sensing and election under external churn), not aborted:
  // the mover stays put and the rejection is counted.
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& mover = sim.add_module<RecorderModule>(BlockId{1});
  const motion::MotionRule* rule = sim.world().rules().find("slide_ES");
  motion::RuleApplication app{rule, {1, 1}, 0};  // no supports -> invalid
  sim.start_motion_for(mover, app);
  EXPECT_EQ(sim.stats().motions_started, 0u);
  EXPECT_EQ(sim.stats().motions_rejected, 1u);
  EXPECT_TRUE(sim.world().view().occupied({1, 1}));  // did not move
}

TEST(Simulator, KilledModuleReceivesNothing) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  auto& b = sim.add_module<RecorderModule>(BlockId{2});
  sim.kill_module(BlockId{2});
  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kEast));
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
}

/// Kills a block's program at a given time.
class KillAt final : public Event {
 public:
  explicit KillAt(BlockId id) : id_(id) {}
  [[nodiscard]] std::string_view kind() const override { return "Kill"; }
  void execute(Simulator& sim) override { sim.kill_module(id_); }

 private:
  BlockId id_;
};

TEST(Simulator, ReceiverKilledInFlightDropsTheMessage) {
  SimConfig config;
  config.latency = msg::LatencyModel::fixed(5);
  Simulator sim(make_world({{1, 1}, {2, 1}}), config);
  auto& a = sim.add_module<RecorderModule>(BlockId{1});
  auto& b = sim.add_module<RecorderModule>(BlockId{2});
  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kEast));
  sim.schedule(2, std::make_unique<KillAt>(BlockId{2}));
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.stats().messages_sent(), 1u);
  EXPECT_EQ(sim.stats().messages_delivered, 0u);
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
}

/// Counters of one message sent at t=0 across the contact between the
/// slide_ES mover (1,1) and its support (1,0) while the mover hops to
/// (2,1), which ends the contact at t=3. `from_mover` picks the sender.
struct HopRace {
  uint64_t delivered = 0;
  uint64_t dropped = 0;
};

HopRace race_message_against_hop(bool from_mover, Ticks latency) {
  SimConfig config;
  config.latency = msg::LatencyModel::fixed(latency);
  config.motion_duration = 3;
  Simulator sim(make_world({{1, 1}, {1, 0}, {2, 0}}), config);
  auto& mover = sim.add_module<RecorderModule>(BlockId{1});
  auto& support = sim.add_module<RecorderModule>(BlockId{2});
  sim.add_module<RecorderModule>(BlockId{3});
  if (from_mover) {
    sim.schedule(0, std::make_unique<SendAtStart>(&mover, Direction::kSouth));
  } else {
    sim.schedule(0,
                 std::make_unique<SendAtStart>(&support, Direction::kNorth));
  }
  const motion::MotionRule* rule = sim.world().rules().find("slide_ES");
  sim.start_motion_for(mover, motion::RuleApplication{rule, {1, 1}, 0});
  sim.run();
  EXPECT_EQ(sim.world().view().at({2, 1}), BlockId{1});
  EXPECT_EQ(sim.stats().messages_sent(), 1u);
  RecorderModule& receiver = from_mover ? support : mover;
  EXPECT_EQ(receiver.received.size(), sim.stats().messages_delivered);
  return {sim.stats().messages_delivered, sim.stats().messages_dropped};
}

TEST(Simulator, MessageLandingBeforeTheHopIsDelivered) {
  for (const bool from_mover : {true, false}) {
    const HopRace race = race_message_against_hop(from_mover, 2);
    EXPECT_EQ(race.delivered, 1u) << "from_mover=" << from_mover;
    EXPECT_EQ(race.dropped, 0u) << "from_mover=" << from_mover;
  }
}

TEST(Simulator, SenderThatHopsOutOfContactLosesItsMessage) {
  const HopRace race = race_message_against_hop(/*from_mover=*/true, 10);
  EXPECT_EQ(race.delivered, 0u);
  EXPECT_EQ(race.dropped, 1u);
}

TEST(Simulator, ReceiverThatHopsOutOfContactLosesItsMessage) {
  const HopRace race = race_message_against_hop(/*from_mover=*/false, 10);
  EXPECT_EQ(race.delivered, 0u);
  EXPECT_EQ(race.dropped, 1u);
}

// ---------------------------------------------------------------------------
// Sensing
// ---------------------------------------------------------------------------

TEST(World, SenseCapturesWindow) {
  const World world = make_world({{2, 2}, {3, 2}, {2, 3}});
  const lat::Neighborhood window = world.sense({2, 2});
  EXPECT_EQ(window.radius(), 2);  // rule size 3 -> radius 2
  EXPECT_TRUE(window.occupied({3, 2}));
  EXPECT_TRUE(window.occupied({2, 3}));
  EXPECT_FALSE(window.occupied({4, 2}));
  EXPECT_FALSE(window.occupied({0, 0}));
  EXPECT_FALSE(window.in_bounds({-1, 2}));
}

// ---------------------------------------------------------------------------
// Determinism & latency models
// ---------------------------------------------------------------------------

TEST(Latency, ModelsRespectBounds) {
  Rng rng(1);
  const auto fixed = msg::LatencyModel::fixed(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fixed.sample(rng), 4u);

  const auto uniform = msg::LatencyModel::uniform(2, 9);
  for (int i = 0; i < 1000; ++i) {
    const Ticks t = uniform.sample(rng);
    EXPECT_GE(t, 2u);
    EXPECT_LE(t, 9u);
  }

  const auto expo = msg::LatencyModel::exponential(6.0);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const Ticks t = expo.sample(rng);
    EXPECT_GE(t, 1u);
    sum += static_cast<double>(t);
  }
  EXPECT_NEAR(sum / 20000.0, 6.0, 0.5);
}

TEST(Latency, DescribeNamesModel) {
  EXPECT_EQ(msg::LatencyModel::fixed(3).describe(), "fixed(3)");
  EXPECT_EQ(msg::LatencyModel::uniform(1, 5).describe(), "uniform(1,5)");
  EXPECT_NE(
      msg::LatencyModel::exponential(2.0).describe().find("exponential"),
      std::string::npos);
}

TEST(Latency, UniformDrawsMatchRngNextIn) {
  // The model reduces a power-of-two span with a mask and hands any other
  // span to Rng::next_below; every draw must still be Rng::next_in's,
  // consuming the same raw draws. At 3 * 2^61 a quarter of the raw draws
  // fall below the rejection threshold and are rejected.
  const uint64_t spans[] = {1, 2, 7, 8, 9, 50, uint64_t{3} << 61};
  constexpr int kDraws = 100'000;
  for (const uint64_t span : spans) {
    const Ticks lo = 3;
    const Ticks hi = lo + span - 1;
    const auto model = msg::LatencyModel::uniform(lo, hi);
    Rng sampled(span);
    Rng reference(span);
    for (int i = 0; i < kDraws; ++i) {
      const auto expected = static_cast<Ticks>(reference.next_in(
          static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
      ASSERT_EQ(model.sample(sampled), expected)
          << "span " << span << ", draw " << i;
    }
    // Count the raw draws rejection consumed on a third twin.
    Rng raw(span);
    const uint64_t threshold = (0 - span) % span;
    uint64_t rejected = 0;
    for (int accepted = 0; accepted < kDraws;) {
      if (raw.next() >= threshold) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    EXPECT_EQ(sampled.next(), raw.next()) << "span " << span;
    if (span == (uint64_t{3} << 61)) {
      EXPECT_GT(rejected, 0u);
    }
  }
}

TEST(Latency, BoundsAreExactIntegers) {
  // Above 2^53 a double cannot hold every integer, and a bound at or above
  // 2^63 does not fit an int64: the model keeps its bounds as ticks.
  const Ticks lo = (Ticks{1} << 53) + 1;
  const Ticks hi = (Ticks{1} << 53) + 3;
  const auto model = msg::LatencyModel::uniform(lo, hi);
  EXPECT_EQ(model.describe(), "uniform(9007199254740993,9007199254740995)");
  EXPECT_EQ(model.min_ticks(), lo);
  EXPECT_EQ(msg::LatencyModel::fixed(lo).describe(),
            "fixed(9007199254740993)");
  Rng rng(7);
  std::array<bool, 3> seen{};
  for (int i = 0; i < 1000; ++i) {
    const Ticks t = model.sample(rng);
    ASSERT_GE(t, lo);
    ASSERT_LE(t, hi);
    seen[t - lo] = true;
  }
  EXPECT_EQ(seen, (std::array<bool, 3>{true, true, true}));

  const auto top = msg::LatencyModel::uniform(UINT64_MAX - 2, UINT64_MAX);
  EXPECT_EQ(top.describe(),
            "uniform(18446744073709551613,18446744073709551615)");
  for (int i = 0; i < 1000; ++i) ASSERT_GE(top.sample(rng), UINT64_MAX - 2);
  const auto full = msg::LatencyModel::uniform(1, UINT64_MAX);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(full.sample(rng), 1u);
}

TEST(Simulator, SameSeedSameTrajectory) {
  const auto run_once = [](uint64_t seed) {
    SimConfig config;
    config.seed = seed;
    config.latency = msg::LatencyModel::uniform(1, 9);
    Simulator sim(make_world({{0, 0}, {1, 0}, {2, 0}}), config);
    std::vector<RecorderModule*> modules;
    for (uint32_t id = 1; id <= 3; ++id) {
      modules.push_back(&sim.add_module<RecorderModule>(BlockId{id}, true));
    }
    sim.schedule(
        0, std::make_unique<SendAtStart>(modules[0], Direction::kEast, 5));
    sim.run();
    return sim.now();
  };
  EXPECT_EQ(run_once(123), run_once(123));
  // Different seeds should (almost surely) give different random latencies.
  EXPECT_NE(run_once(123), run_once(456));
}

TEST(Simulator, StopReasonNames) {
  EXPECT_EQ(to_string(StopReason::kQueueEmpty), "queue-empty");
  EXPECT_EQ(to_string(StopReason::kEventLimit), "event-limit");
  EXPECT_EQ(to_string(StopReason::kTimeLimit), "time-limit");
  EXPECT_EQ(to_string(StopReason::kHalted), "halted");
}

}  // namespace
}  // namespace sb::sim
