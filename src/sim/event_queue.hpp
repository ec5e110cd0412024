#pragma once
// The pending-event set.
//
// EventQueue is the simulator's one queue — the engine's sequential queue
// and every shard's queue hold one by value. It is a calendar queue: a
// 64-tick ring of per-tick FIFO buckets covering [base, base + 64), plus a
// binary-heap overflow for later ticks. Link latencies and motion
// durations are a handful of ticks, so nearly every push is an O(1) append
// to a bucket, and a 64-bit occupancy word turns peek() and pop() into one
// rotate and one count-trailing-zeros at any depth. Only fault-mode timers and long latency tails reach the overflow.
// Buckets are chains of fixed-size chunks drawn from one free list, so
// storage tracks the pending-event count rather than every slot's
// high-water mark.
//
// BinaryHeapEventQueue is the reference: an array min-heap with the same
// interface and the same (time, seq) pop order. The differential queue
// tests and bench_e2e's queue replay use it; the simulator does not.

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "sim/event.hpp"

namespace sb::sim {

class EventQueue {
 public:
  /// Ring span in ticks. Public so the tests can target the exact tick
  /// where a push spills from the ring into the overflow.
  static constexpr SimTime kRingSize = 64;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Takes ownership; assigns the tie-breaking sequence number. The time
  /// must not be below the last popped event's: the simulator never
  /// schedules before a queue's clock.
  void push(EventRecord&& record) {
    record.seq = next_seq_++;
    ++size_;
    const SimTime t = record.time;
    if (t - base_ < kRingSize) {  // unsigned: false for t < base_ too
      append(ring_[t & kRingMask], std::move(record));
      occupied_ |= uint64_t{1} << (t & kRingMask);
    } else {
      push_outside_ring(std::move(record));
    }
  }

  /// Removes and returns the earliest event (time, then seq). Queue must be
  /// non-empty.
  EventRecord pop();

  /// Earliest event without removing it; nullptr when empty.
  [[nodiscard]] const EventRecord* peek() const {
    if (occupied_ != 0) {
      const Bucket& bucket =
          ring_[(base_ + first_occupied_offset()) & kRingMask];
      return &bucket.head->records[bucket.head_index];
    }
    return overflow_.empty() ? nullptr : &overflow_.front();
  }

  /// The record `k` places behind peek()'s in the head tick's bucket (the
  /// one the (k+1)-th pop from now returns, unless an earlier tick is
  /// pushed first), or nullptr when that bucket holds k or fewer records or
  /// the head waits in the overflow. Follows the bucket's chunk chain and
  /// never reads past its tail. The drain reads it to prefetch ahead of
  /// pop().
  [[nodiscard]] const EventRecord* peek_ahead(uint32_t k) const {
    if (occupied_ == 0) return nullptr;
    const Bucket& bucket =
        ring_[(base_ + first_occupied_offset()) & kRingMask];
    const Chunk* chunk = bucket.head;
    uint32_t index = bucket.head_index + k;
    while (index >= kChunkRecords) {
      if (chunk == bucket.tail) return nullptr;
      chunk = chunk->next;
      index -= kChunkRecords;
    }
    if (chunk == bucket.tail && index >= bucket.tail_count) return nullptr;
    return &chunk->records[index];
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr SimTime kRingMask = kRingSize - 1;
  static constexpr uint32_t kChunkRecords = 64;

  struct Chunk {
    std::array<EventRecord, kChunkRecords> records;
    Chunk* next = nullptr;
  };

  /// FIFO of one tick's records: a chain of chunks, popped at the head and
  /// appended at the tail. Empty buckets hold no chunk.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    uint32_t head_index = 0;  ///< next record to pop in `head`
    uint32_t tail_count = 0;  ///< records written into `tail`
  };

  /// Ticks from base_ to the earliest occupied bucket. Requires
  /// occupied_ != 0.
  [[nodiscard]] SimTime first_occupied_offset() const {
    return static_cast<SimTime>(std::countr_zero(
        std::rotr(occupied_, static_cast<int>(base_ & kRingMask))));
  }

  void append(Bucket& bucket, EventRecord&& record) {
    if (bucket.tail == nullptr || bucket.tail_count == kChunkRecords) {
      grow(bucket);
    }
    bucket.tail->records[bucket.tail_count++] = std::move(record);
  }
  /// Removes the bucket's first record, returning drained chunks to the
  /// free list. The bucket must be non-empty.
  EventRecord take_front(Bucket& bucket);

  void grow(Bucket& bucket);
  void release(Chunk* chunk) {
    chunk->next = free_;
    free_ = chunk;
  }
  /// Push for a tick outside [base_, base_ + kRingSize): one below the
  /// window fails SB_EXPECTS; a later one lands in the overflow.
  void push_outside_ring(EventRecord&& record);
  /// Moves overflow records that the window now covers into the ring, in
  /// (time, seq) order, ahead of any later push to the same tick.
  void migrate_overflow();

  /// Start of the ring window: the last popped tick (0 before any pop),
  /// never above the earliest pending time.
  SimTime base_ = 0;
  /// Bit s set iff ring_[s] holds records (of the window tick ≡ s mod 64).
  uint64_t occupied_ = 0;
  std::array<Bucket, kRingSize> ring_{};
  /// Min-heap on (time, seq) of records at or past base_ + kRingSize.
  std::vector<EventRecord> overflow_;
  /// Every chunk ever allocated; the ring's chains and the free list
  /// (`free_`, linked through Chunk::next) point into it.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  Chunk* free_ = nullptr;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
};

/// Array-backed binary min-heap of records: the reference queue.
class BinaryHeapEventQueue {
 public:
  void push(EventRecord&& record);
  EventRecord pop();
  [[nodiscard]] const EventRecord* peek() const;
  [[nodiscard]] size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  void sift_up(size_t i);
  void sift_down(size_t i);

  std::vector<EventRecord> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace sb::sim
