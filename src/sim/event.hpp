#pragma once
// Discrete events. The simulator is a classic event-driven core (the
// paper's VisibleSim "mixes a discrete-event core simulator with
// discrete-time functionalities").
//
// The hot path stores events *by value*: an EventRecord is a small tagged
// struct covering the four built-in behaviours (start, timer, message
// delivery, motion completion), so scheduling a start, timer or delivery
// costs no allocation beyond the pooled message itself. Custom behaviours
// (tests, benches, fault injection) still subclass Event; those are
// carried through the same queue behind a pointer.

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "lattice/block_id.hpp"
#include "motion/apply.hpp"
#include "msg/message.hpp"
#include "sim/time.hpp"

namespace sb::sim {

class Simulator;

/// Base class for user-defined events (EventKind::kExternal). The built-in
/// simulator behaviours do not subclass this — they are dispatched from the
/// EventRecord tag without a virtual call.
class Event {
 public:
  explicit Event(SimTime time) : time_(time) {}
  virtual ~Event() = default;

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] SimTime time() const { return time_; }

  /// Stable tag for statistics ("Seed", "FaultInjection", ...).
  [[nodiscard]] virtual std::string_view kind() const = 0;

  virtual void execute(Simulator& sim) = 0;

 private:
  SimTime time_;
};

enum class EventKind : uint8_t {
  kStart = 0,
  kTimer,
  kDelivery,
  kMotionComplete,
  kExternal,
};

/// A pending event, stored by value in the queue. Which fields are
/// meaningful depends on `kind`; the factory functions below are the only
/// intended constructors.
///
/// The record is 48 bytes: the fixed fields plus one owned pointer whose
/// type `kind` fixes — the message of a delivery, the rule application of
/// a motion completion (once per epoch, so it lives out of line), the
/// user event of an external record; starts and timers own nothing.
struct EventRecord {
  SimTime time = 0;
  /// Monotone insertion sequence; breaks timestamp ties deterministically
  /// (same seed -> identical execution order). Assigned by the queue.
  uint64_t seq = 0;
  /// Timer tag; for deliveries, the payload size in bytes (so the receive
  /// side does not re-query the message's virtual payload_bytes()).
  uint64_t tag = 0;
  lat::BlockId a;  ///< start/timer target, delivery sender, motion subject
  lat::BlockId b;  ///< delivery receiver
  /// Set once by the factory; it also types the owned payload, so it must
  /// not change afterwards.
  EventKind kind = EventKind::kExternal;

  EventRecord() = default;
  ~EventRecord() { release(); }
  EventRecord(EventRecord&& other) noexcept
      : time(other.time),
        seq(other.seq),
        tag(other.tag),
        a(other.a),
        b(other.b),
        kind(other.kind),
        payload_(std::exchange(other.payload_, nullptr)) {}
  EventRecord& operator=(EventRecord&& other) noexcept {
    if (this != &other) {
      release();
      time = other.time;
      seq = other.seq;
      tag = other.tag;
      a = other.a;
      b = other.b;
      kind = other.kind;
      payload_ = std::exchange(other.payload_, nullptr);
    }
    return *this;
  }
  EventRecord(const EventRecord&) = delete;
  EventRecord& operator=(const EventRecord&) = delete;

  [[nodiscard]] static EventRecord start(SimTime t, lat::BlockId target) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kStart;
    r.a = target;
    return r;
  }

  [[nodiscard]] static EventRecord timer(SimTime t, lat::BlockId target,
                                         uint64_t tag) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kTimer;
    r.a = target;
    r.tag = tag;
    return r;
  }

  [[nodiscard]] static EventRecord delivery(SimTime t, lat::BlockId sender,
                                            lat::BlockId receiver,
                                            msg::MessagePtr m,
                                            size_t payload_bytes) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kDelivery;
    r.a = sender;
    r.b = receiver;
    r.tag = payload_bytes;
    r.payload_ = m.release();
    return r;
  }

  [[nodiscard]] static EventRecord motion_complete(
      SimTime t, lat::BlockId subject, const motion::RuleApplication& app) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kMotionComplete;
    r.a = subject;
    r.payload_ = new motion::RuleApplication(app);
    return r;
  }

  [[nodiscard]] static EventRecord wrap(SimTime t,
                                        std::unique_ptr<Event> event) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kExternal;
    r.payload_ = event.release();
    return r;
  }

  /// Delivery payload.
  [[nodiscard]] const msg::Message& message() const {
    return *static_cast<const msg::Message*>(payload_);
  }
  /// Motion-complete payload.
  [[nodiscard]] const motion::RuleApplication& app() const {
    return *static_cast<const motion::RuleApplication*>(payload_);
  }
  /// External-event payload.
  [[nodiscard]] Event& external() const {
    return *static_cast<Event*>(payload_);
  }

  /// Stable tag for statistics; external events report their own kind().
  [[nodiscard]] std::string_view kind_name() const {
    switch (kind) {
      case EventKind::kStart: return "Start";
      case EventKind::kTimer: return "Timer";
      case EventKind::kDelivery: return "Delivery";
      case EventKind::kMotionComplete: return "MotionComplete";
      case EventKind::kExternal: return external().kind();
    }
    return "?";
  }

 private:
  void release() noexcept {
    if (payload_ == nullptr) return;
    switch (kind) {
      case EventKind::kDelivery:
        delete static_cast<msg::Message*>(payload_);
        break;
      case EventKind::kMotionComplete:
        delete static_cast<motion::RuleApplication*>(payload_);
        break;
      case EventKind::kExternal: delete static_cast<Event*>(payload_); break;
      case EventKind::kStart:
      case EventKind::kTimer: break;
    }
    payload_ = nullptr;
  }

  /// Owned payload, typed by `kind` (see above); null when moved from.
  void* payload_ = nullptr;
};

static_assert(sizeof(EventRecord) <= 48, "EventRecord grew past 48 bytes");

/// Total order on events: by time, then insertion sequence.
[[nodiscard]] inline bool event_before(const EventRecord& a,
                                       const EventRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace sb::sim
