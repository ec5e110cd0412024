#pragma once
// Discrete events. The simulator is an event-driven core (the
// paper's VisibleSim "mixes a discrete-event core simulator with
// discrete-time functionalities").
//
// The hot path stores events *by value*: an EventRecord is a small tagged
// struct covering the four built-in behaviours (start, timer, message
// delivery, motion completion), so scheduling a start, timer or delivery
// allocates nothing — a delivery carries its message envelope inline.
// Custom behaviours (tests, benches, fault injection) still subclass Event;
// those are carried through the same queue behind a pointer.

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string_view>

#include "lattice/block_id.hpp"
#include "motion/apply.hpp"
#include "msg/message.hpp"
#include "sim/time.hpp"

namespace sb::sim {

class Simulator;

/// Base class for user-defined events (EventKind::kExternal). The built-in
/// simulator behaviours do not subclass this — they are dispatched from the
/// EventRecord tag without a virtual call. An event runs at the time it is
/// scheduled for (Simulator::schedule); it keeps none of its own.
class Event {
 public:
  Event() = default;
  virtual ~Event() = default;

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Stable tag for statistics ("Seed", "FaultInjection", ...).
  [[nodiscard]] virtual std::string_view kind() const = 0;

  virtual void execute(Simulator& sim) = 0;
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
/// The record is 48 bytes: the fixed fields, then a 23-byte payload whose
/// content `kind` fixes — a delivery's message envelope, a timer's tag, or
/// one owned pointer: the rule application of a motion completion (once
/// per epoch, so it lives out of line) or the user event of an external
/// record. Only those two pointer kinds need work when a record is moved or
/// destroyed.
struct EventRecord {
  SimTime time = 0;
  /// Monotone insertion sequence; breaks timestamp ties deterministically
  /// (same seed -> identical execution order). Assigned by the queue.
  uint64_t seq = 0;
  lat::BlockId a;  ///< start/timer target, delivery sender, motion subject
  lat::BlockId b;  ///< delivery receiver

 private:
  static constexpr size_t kPayloadBytes = sizeof(msg::Message);
  /// Typed by `kind` (see above). A pointer or timer tag sits at offset 0,
  /// so the alignment keeps it a plain aligned word.
  alignas(8) std::byte payload_[kPayloadBytes];

 public:
  /// Set once by the factory; it also types the payload, so it must not
  /// change afterwards.
  EventKind kind = EventKind::kExternal;

  EventRecord() : payload_{} {}
  ~EventRecord() { release(); }
  // Initialises every field from `other` directly: default-initialising
  // first would cost a dead store per field on every queue push and pop.
  EventRecord(EventRecord&& other) noexcept
      : time(other.time),
        seq(other.seq),
        a(other.a),
        b(other.b),
        kind(other.kind) {
    take_payload(other);
  }
  EventRecord& operator=(EventRecord&& other) noexcept {
    if (this != &other) {
      release();
      time = other.time;
      seq = other.seq;
      a = other.a;
      b = other.b;
      kind = other.kind;
      take_payload(other);
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
    r.store_word(tag);
    return r;
  }

  [[nodiscard]] static EventRecord delivery(SimTime t, lat::BlockId sender,
                                            lat::BlockId receiver,
                                            const msg::Message& m) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kDelivery;
    r.a = sender;
    r.b = receiver;
    ::new (static_cast<void*>(r.payload_)) msg::Message(m);
    return r;
  }

  [[nodiscard]] static EventRecord motion_complete(
      SimTime t, lat::BlockId subject, const motion::RuleApplication& app) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kMotionComplete;
    r.a = subject;
    r.store_word(new motion::RuleApplication(app));
    return r;
  }

  [[nodiscard]] static EventRecord wrap(SimTime t,
                                        std::unique_ptr<Event> event) {
    EventRecord r;
    r.time = t;
    r.kind = EventKind::kExternal;
    r.store_word(event.release());
    return r;
  }

  /// Delivery payload.
  [[nodiscard]] const msg::Message& message() const {
    return *std::launder(reinterpret_cast<const msg::Message*>(payload_));
  }
  /// Motion-complete payload.
  [[nodiscard]] const motion::RuleApplication& app() const {
    return *load_word<const motion::RuleApplication*>();
  }
  /// External-event payload.
  [[nodiscard]] Event& external() const { return *load_word<Event*>(); }

  /// What event-trace lines print as `tag=`: a timer's tag, a delivery's
  /// wire bytes (msg::Body::kWireBytes), 0 for the other kinds.
  [[nodiscard]] uint64_t tag() const {
    switch (kind) {
      case EventKind::kTimer: return load_word<uint64_t>();
      case EventKind::kDelivery: return message().wire_bytes();
      default: return 0;
    }
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
  /// True for the kinds whose payload is an owned pointer.
  [[nodiscard]] bool owns_pointer() const {
    return kind == EventKind::kMotionComplete || kind == EventKind::kExternal;
  }

  template <typename T>
  void store_word(T value) {
    static_assert(sizeof(T) == 8);
    std::memcpy(payload_, &value, sizeof(T));
  }
  template <typename T>
  [[nodiscard]] T load_word() const {
    static_assert(sizeof(T) == 8);
    T value;
    std::memcpy(&value, payload_, sizeof(T));
    return value;
  }

  /// Copies the payload; a moved-from owner keeps a null pointer.
  void take_payload(EventRecord& other) noexcept {
    std::memcpy(payload_, other.payload_, kPayloadBytes);
    if (other.owns_pointer()) other.store_word<void*>(nullptr);
  }

  void release() noexcept {
    if (!owns_pointer()) return;
    if (kind == EventKind::kMotionComplete) {
      delete load_word<motion::RuleApplication*>();
    } else {
      delete load_word<Event*>();
    }
    store_word<void*>(nullptr);
  }
};

static_assert(sizeof(EventRecord) == 48, "EventRecord must stay 48 bytes");

/// Total order on events: by time, then insertion sequence.
[[nodiscard]] inline bool event_before(const EventRecord& a,
                                       const EventRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace sb::sim
