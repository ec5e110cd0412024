#pragma once
// A counter that concurrent shard windows may bump.

#include <atomic>
#include <cstdint>

namespace sb::util {

/// Counter bumped from message handlers and connectivity probes. Under the
/// sharded simulator those run concurrently across shard workers, so the
/// counters that *every* block touches are relaxed atomics: their final
/// value is an order-independent sum. Counters written by a single block
/// (the Root or the elected mover) or only between windows stay plain.
struct ParallelCounter {
  std::atomic<uint64_t> value{0};

  ParallelCounter() = default;
  ParallelCounter(const ParallelCounter& other)
      : value(other.value.load(std::memory_order_relaxed)) {}
  ParallelCounter& operator=(const ParallelCounter& other) {
    value.store(other.value.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  ParallelCounter& operator++() {
    value.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in counter read.
  operator uint64_t() const { return value.load(std::memory_order_relaxed); }
};

}  // namespace sb::util
