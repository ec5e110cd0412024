#pragma once
// Simulator-level counters. In their own header so both the simulator and
// the per-shard execution state (sim/shard.hpp) can hold them by value.

#include <cstdint>

#include "util/flat_counts.hpp"

namespace sb::sim {

struct SimStats {
  uint64_t events_processed = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t motions_started = 0;
  uint64_t motions_completed = 0;
  /// Motion requests that were physically invalid by the time they arrived
  /// (the world changed between a block's decision and its election — only
  /// possible under external churn). The mover stays put and recovers at
  /// the protocol level (Module::on_motion_rejected).
  uint64_t motions_rejected = 0;
  /// Per message kind (Activate, Ack, ...); keys are static string tags.
  /// A flat sorted vector: bumped once per message and copied per sweep
  /// run, where a node-based map is measurable overhead.
  util::FlatCounts messages_by_kind;

  /// Adds every counter of `other` into this (scalar sums; the per-kind
  /// counts merge key-wise). The sharded run folds per-shard stats into the
  /// simulator totals with this.
  void accumulate(const SimStats& other) {
    events_processed += other.events_processed;
    messages_sent += other.messages_sent;
    messages_delivered += other.messages_delivered;
    messages_dropped += other.messages_dropped;
    motions_started += other.motions_started;
    motions_completed += other.motions_completed;
    motions_rejected += other.motions_rejected;
    messages_by_kind.merge(other.messages_by_kind);
  }
};

}  // namespace sb::sim
