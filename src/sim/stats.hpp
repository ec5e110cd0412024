#pragma once
// Simulator-level counters. In their own header so both the simulator and
// the per-shard execution state (sim/shard.hpp) can hold them by value.

#include <array>
#include <cstdint>
#include <numeric>

#include "msg/message.hpp"

namespace sb::sim {

struct SimStats {
  uint64_t events_processed = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t motions_started = 0;
  uint64_t motions_completed = 0;
  /// Motion requests that were physically invalid by the time they arrived
  /// (the world changed between a block's decision and its election — only
  /// possible under external churn). The mover stays put and recovers at
  /// the protocol level (Module::on_motion_rejected).
  uint64_t motions_rejected = 0;
  /// Messages sent, per envelope tag. The protocol that owns the tags names
  /// them (core::ReconfigurationSession::run).
  std::array<uint64_t, msg::kTagCount> messages_by_tag{};

  [[nodiscard]] uint64_t messages_sent() const {
    return std::accumulate(messages_by_tag.begin(), messages_by_tag.end(),
                           uint64_t{0});
  }

  /// Adds every counter of `other` into this. Simulator::stats() uses it
  /// to add every shard's counters to the sequential share.
  void accumulate(const SimStats& other) {
    events_processed += other.events_processed;
    messages_delivered += other.messages_delivered;
    messages_dropped += other.messages_dropped;
    motions_started += other.motions_started;
    motions_completed += other.motions_completed;
    motions_rejected += other.motions_rejected;
    for (size_t tag = 0; tag < msg::kTagCount; ++tag) {
      messages_by_tag[tag] += other.messages_by_tag[tag];
    }
  }
};

}  // namespace sb::sim
