// Tests for the discrete-event simulator: queues, scheduling, messaging,
// motion execution, neighbor-change notifications, determinism.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

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
  ProbeEvent(SimTime time, int label, std::vector<int>* sink)
      : Event(time), label_(label), sink_(sink) {}
  [[nodiscard]] std::string_view kind() const override { return "Probe"; }
  void execute(Simulator&) override { sink_->push_back(label_); }
  [[nodiscard]] int label() const { return label_; }

 private:
  int label_;
  std::vector<int>* sink_;
};

/// Wraps a ProbeEvent (label carrier) into a by-value record.
EventRecord probe(SimTime time, int label, std::vector<int>* sink) {
  return EventRecord::wrap(time,
                           std::make_unique<ProbeEvent>(time, label, sink));
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
  queue.push(probe(3, 2, &sink));  // earlier again
  EXPECT_EQ(queue.pop().time, 3u);
  EXPECT_EQ(queue.pop().time, 10u);
}

struct ExtractProbeMsg final : msg::Message {
  [[nodiscard]] std::string_view kind() const override { return "Extract"; }
  [[nodiscard]] msg::MessagePtr clone() const override {
    return std::make_unique<ExtractProbeMsg>(*this);
  }
};

TYPED_TEST(QueueTest, ExtractForPullsTargetedEventsInOrder) {
  TypeParam queue;
  const lat::BlockId mover{7};
  const lat::BlockId other{9};
  queue.push(EventRecord::timer(12, mover, 1));
  queue.push(EventRecord::timer(5, other, 2));
  queue.push(EventRecord::start(3, mover));
  queue.push(EventRecord::delivery(
      9, other, mover, std::make_unique<ExtractProbeMsg>(), 0));
  queue.push(EventRecord::delivery(
      6, mover, other, std::make_unique<ExtractProbeMsg>(),
      0));  // mover is sender
  // Beyond the calendar's ring, so extraction sweeps the overflow.
  queue.push(EventRecord::timer(EventQueue::kRingSize + 40, mover, 3));

  std::vector<EventRecord> extracted;
  queue.extract_for(mover, extracted);
  ASSERT_EQ(extracted.size(), 4u);
  EXPECT_EQ(extracted[0].kind, EventKind::kStart);
  EXPECT_EQ(extracted[1].time, 9u);  // delivery addressed *to* the mover
  EXPECT_EQ(extracted[2].time, 12u);
  EXPECT_EQ(extracted[3].time, EventQueue::kRingSize + 40);

  // Survivors: other's timer, the delivery mover sent to other.
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().time, 5u);
  EXPECT_EQ(queue.pop().time, 6u);
  EXPECT_TRUE(queue.empty());
}

TYPED_TEST(QueueTest, ExtractForEmptyingTheOverflowHeadKeepsOrder) {
  // Extracting the only record of the earliest beyond-ring tick must leave
  // the next overflow record reachable by peek() and pop().
  TypeParam queue;
  const SimTime far = EventQueue::kRingSize + 50;
  queue.push(EventRecord::timer(far, lat::BlockId{7}, 1));
  queue.push(EventRecord::timer(far + 3, lat::BlockId{9}, 2));

  std::vector<EventRecord> extracted;
  queue.extract_for(lat::BlockId{7}, extracted);
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(extracted[0].time, far);

  ASSERT_NE(queue.peek(), nullptr);
  EXPECT_EQ(queue.peek()->time, far + 3);
  EXPECT_EQ(queue.pop().time, far + 3);
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

TEST(CalendarRing, PushBelowTheWindowSpillsItsFarEnd) {
  // Window at [100, 164): a push at t=50 moves it to [50, 114), so the
  // bucket at 150 leaves the ring for the overflow and must come back in
  // order, behind a later push to the same tick made before it returns.
  EventQueue queue;
  std::vector<int> sink;
  queue.push(probe(100, 0, &sink));
  EXPECT_EQ(label_of(queue.pop()), 0);  // window starts at 100
  queue.push(probe(150, 1, &sink));
  queue.push(probe(110, 2, &sink));
  queue.push(probe(50, 3, &sink));  // below the window
  queue.push(probe(150, 4, &sink));
  EXPECT_EQ(label_of(queue.pop()), 3);
  EXPECT_EQ(label_of(queue.pop()), 2);
  EXPECT_EQ(label_of(queue.pop()), 1);
  EXPECT_EQ(label_of(queue.pop()), 4);
  EXPECT_TRUE(queue.empty());
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
        ASSERT_EQ(record.tag, i);
      }
    }
    EXPECT_TRUE(queue.empty());
  }
}

/// (time, seq, label) of a record; the label rides in `tag` (timers) or
/// the payload-bytes field (deliveries).
struct Popped {
  SimTime time;
  uint64_t seq;
  uint64_t label;
  bool operator==(const Popped&) const = default;
};

Popped popped(const EventRecord& record) {
  return {record.time, record.seq, record.tag};
}

TEST(CalendarRing, MatchesBinaryHeapOverSimulatorPatterns) {
  // A long randomized differential over the schedules the simulator
  // produces — 1-8 tick sends, 10-tick motion landings, same-tick work,
  // timers and latency tails past the ring, ticks straddling the ring's
  // end, the odd push below the last popped tick — with extract_for
  // re-homing interleaved. Both queues see the same operations, so seqs
  // agree, and every pop, peek and extraction must agree on
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
      heap.push(EventRecord::delivery(
          t, sender, target, std::make_unique<ExtractProbeMsg>(), label));
      calendar.push(EventRecord::delivery(
          t, sender, target, std::make_unique<ExtractProbeMsg>(), label));
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
    if (pattern < 98) {  // exponential-style tail
      SimTime tail = 1;
      while (rng.next_below(4) != 0 && tail < 4096) tail *= 2;
      return now + tail + rng.next_below(tail);
    }
    return now - std::min<SimTime>(now, rng.next_below(300));  // below
  };

  constexpr int kSteps = 200'000;
  uint64_t pops = 0;
  uint64_t extracted_total = 0;
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
    if (step % 97 == 0) {
      const lat::BlockId target{static_cast<uint32_t>(rng.next_below(8)) + 1};
      std::vector<EventRecord> from_heap;
      std::vector<EventRecord> from_calendar;
      heap.extract_for(target, from_heap);
      calendar.extract_for(target, from_calendar);
      ASSERT_EQ(from_heap.size(), from_calendar.size());
      for (size_t i = 0; i < from_heap.size(); ++i) {
        ASSERT_EQ(popped(from_heap[i]), popped(from_calendar[i]))
            << "extract_for diverged at step " << step;
      }
      extracted_total += from_heap.size();
      // Re-home into the same queue, as the shard engine does into the new
      // owner's: fresh seqs, relative order kept.
      for (EventRecord& record : from_heap) heap.push(std::move(record));
      for (EventRecord& record : from_calendar) {
        calendar.push(std::move(record));
      }
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
  EXPECT_GT(extracted_total, 1'000u);
}

// ---------------------------------------------------------------------------
// Test module
// ---------------------------------------------------------------------------

struct PingMsg final : msg::Message {
  int hops = 0;
  [[nodiscard]] std::string_view kind() const override { return "Ping"; }
  [[nodiscard]] msg::MessagePtr clone() const override {
    return std::make_unique<PingMsg>(*this);
  }
  [[nodiscard]] size_t payload_bytes() const override { return sizeof(hops); }
};

/// Records everything that happens to it; can be told to forward pings.
class RecorderModule final : public Module {
 public:
  explicit RecorderModule(BlockId id, bool forward = false)
      : Module(id), forward_(forward) {}

  void on_start() override { ++starts; }
  void on_message(Direction from, const msg::Message& m) override {
    received.emplace_back(from, std::string(m.kind()));
    if (forward_) {
      if (const auto* ping = dynamic_cast<const PingMsg*>(&m)) {
        if (ping->hops > 0) {
          auto next = std::make_unique<PingMsg>(*ping);
          next->hops -= 1;
          send(opposite(from), std::move(next));
        }
      }
    }
  }
  void on_timer(uint64_t tag) override { timer_tags.push_back(tag); }
  void on_motion_complete() override { ++motions; }
  void on_neighbor_change(Direction side, BlockId now) override {
    neighbor_changes.emplace_back(side, now);
  }

  int starts = 0;
  int motions = 0;
  std::vector<std::pair<Direction, std::string>> received;
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
      : Event(0), module_(module), side_(side), hops_(hops) {}
  [[nodiscard]] std::string_view kind() const override { return "Kick"; }
  void execute(Simulator& sim) override {
    auto ping = std::make_unique<PingMsg>();
    ping->hops = hops_;
    sim.send_from(*module_, side_, std::move(ping));
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
  auto& a = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{1})));
  auto& b = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{2})));
  sim.start_all_modules();
  EXPECT_EQ(sim.run(), StopReason::kQueueEmpty);
  EXPECT_EQ(a.starts, 1);
  EXPECT_EQ(b.starts, 1);
  EXPECT_EQ(sim.stats().events_processed, 2u);
}

TEST(Simulator, NeighborTableInitializedFromGrid) {
  Simulator sim(make_world({{1, 1}, {2, 1}, {1, 2}}));
  auto& a = sim.add_module(std::make_unique<RecorderModule>(BlockId{1}));
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
  auto& a = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{1})));
  auto& b = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{2})));

  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kEast));
  EXPECT_EQ(sim.run(), StopReason::kQueueEmpty);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, Direction::kWest);  // arrived on west port
  EXPECT_EQ(sim.now(), 5u);                          // latency respected
  EXPECT_EQ(sim.stats().messages_sent, 1u);
  EXPECT_EQ(sim.stats().messages_delivered, 1u);
  EXPECT_EQ(b.mailbox().side(Direction::kWest).messages_received, 1u);
  EXPECT_EQ(a.mailbox().side(Direction::kEast).messages_sent, 1u);
  EXPECT_EQ(b.mailbox().side(Direction::kWest).bytes_received,
            sizeof(int));
}

TEST(Simulator, SendWithoutNeighborIsDropped) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module(std::make_unique<RecorderModule>(BlockId{1}));
  sim.add_module(std::make_unique<RecorderModule>(BlockId{2}));
  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kNorth));
  sim.run();
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
  EXPECT_EQ(sim.stats().messages_delivered, 0u);
  EXPECT_EQ(a.mailbox().total_dropped(), 1u);
}

TEST(Simulator, PingChainTraversesRow) {
  // Five modules in a row; a ping forwarded with hops=3 crosses 4 links.
  SimConfig config;
  config.latency = msg::LatencyModel::fixed(2);
  Simulator sim(make_world({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}),
                config);
  std::vector<RecorderModule*> modules;
  for (uint32_t id = 1; id <= 5; ++id) {
    modules.push_back(static_cast<RecorderModule*>(&sim.add_module(
        std::make_unique<RecorderModule>(BlockId{id}, /*forward=*/true))));
  }
  sim.schedule(
      0, std::make_unique<SendAtStart>(modules[0], Direction::kEast, 3));
  sim.run();
  EXPECT_EQ(modules[1]->received.size(), 1u);
  EXPECT_EQ(modules[2]->received.size(), 1u);
  EXPECT_EQ(modules[3]->received.size(), 1u);
  EXPECT_EQ(modules[4]->received.size(), 1u);
  EXPECT_EQ(sim.now(), 8u);  // 4 links x 2 ticks
  EXPECT_EQ(sim.stats().messages_by_kind.at("Ping"), 4u);
}

TEST(Simulator, TimersFireWithTags) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{1})));
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
  auto& a = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{1})));
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
  auto& a = sim.add_module(std::make_unique<RecorderModule>(BlockId{1}));
  class Halter final : public Event {
   public:
    Halter() : Event(3) {}
    [[nodiscard]] std::string_view kind() const override { return "Halt"; }
    void execute(Simulator& sim) override { sim.halt(); }
  };
  sim.timer_for(a, 100, 0);
  sim.schedule(3, std::make_unique<Halter>());
  EXPECT_EQ(sim.run(), StopReason::kHalted);
  EXPECT_EQ(sim.pending_events(), 1u);  // the far timer still queued
}

TEST(Simulator, ModuleLookup) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  sim.add_module(std::make_unique<RecorderModule>(BlockId{1}));
  EXPECT_NE(sim.find_module(BlockId{1}), nullptr);
  EXPECT_EQ(sim.find_module(BlockId{9}), nullptr);
  EXPECT_EQ(sim.module_count(), 1u);
  EXPECT_EQ(sim.module_as<RecorderModule>(BlockId{1}).id(), BlockId{1});
}

TEST(SimulatorDeath, ModuleWithoutGridBlockAborts) {
  Simulator sim(make_world({{1, 1}}));
  EXPECT_DEATH(sim.add_module(std::make_unique<RecorderModule>(BlockId{9})),
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
  auto& mover = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{1})));
  auto& support_a = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{2})));
  auto& support_b = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{3})));

  const motion::MotionRule* rule = sim.world().rules().find("slide_ES");
  motion::RuleApplication app{rule, {1, 1}, 0};
  sim.start_motion_for(mover, app);
  sim.run();

  EXPECT_EQ(sim.world().grid().at({2, 1}), BlockId{1});
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
  auto& mover = sim.add_module(std::make_unique<RecorderModule>(BlockId{1}));
  const motion::MotionRule* rule = sim.world().rules().find("slide_ES");
  motion::RuleApplication app{rule, {1, 1}, 0};  // no supports -> invalid
  sim.start_motion_for(mover, app);
  EXPECT_EQ(sim.stats().motions_started, 0u);
  EXPECT_EQ(sim.stats().motions_rejected, 1u);
  EXPECT_TRUE(sim.world().grid().occupied({1, 1}));  // did not move
}

TEST(Simulator, KilledModuleReceivesNothing) {
  Simulator sim(make_world({{1, 1}, {2, 1}}));
  auto& a = sim.add_module(std::make_unique<RecorderModule>(BlockId{1}));
  auto& b = static_cast<RecorderModule&>(
      sim.add_module(std::make_unique<RecorderModule>(BlockId{2})));
  sim.kill_module(BlockId{2});
  sim.schedule(0, std::make_unique<SendAtStart>(&a, Direction::kEast));
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.stats().messages_dropped, 1u);
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

TEST(Simulator, SameSeedSameTrajectory) {
  const auto run_once = [](uint64_t seed) {
    SimConfig config;
    config.seed = seed;
    config.latency = msg::LatencyModel::uniform(1, 9);
    Simulator sim(make_world({{0, 0}, {1, 0}, {2, 0}}), config);
    std::vector<RecorderModule*> modules;
    for (uint32_t id = 1; id <= 3; ++id) {
      modules.push_back(static_cast<RecorderModule*>(&sim.add_module(
          std::make_unique<RecorderModule>(BlockId{id}, true))));
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
