#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace sb::sim {

namespace {

/// Heap order for std::push_heap/pop_heap: the earliest record on top.
bool later(const EventRecord& a, const EventRecord& b) {
  return event_before(b, a);
}

constexpr uint64_t slot_bit(size_t slot) { return uint64_t{1} << slot; }

}  // namespace

// ---------------------------------------------------------------------------
// EventQueue (calendar)
// ---------------------------------------------------------------------------

EventRecord EventQueue::pop() {
  SB_EXPECTS(size_ > 0, "pop from empty event queue");
  if (occupied_ == 0) {
    // Nothing inside the window: jump it to the earliest overflow tick.
    base_ = overflow_.front().time;
    migrate_overflow();
  }
  const SimTime t = base_ + first_occupied_offset();
  const size_t slot = t & kRingMask;
  if (t != base_) {
    // Every tick in [base_, t) is empty, so the window may start at t; the
    // ticks it gains at its far end may have records waiting in overflow.
    base_ = t;
    if (!overflow_.empty() && overflow_.front().time - base_ < kRingSize) {
      migrate_overflow();
    }
  }
  Bucket& bucket = ring_[slot];
  EventRecord record = take_front(bucket);
  if (bucket.head == nullptr) occupied_ &= ~slot_bit(slot);
  --size_;
  return record;
}

EventRecord EventQueue::take_front(Bucket& bucket) {
  Chunk* head = bucket.head;
  EventRecord record = std::move(head->records[bucket.head_index++]);
  if (head == bucket.tail) {
    if (bucket.head_index == bucket.tail_count) {
      release(head);
      bucket = Bucket{};
    }
  } else if (bucket.head_index == kChunkRecords) {
    bucket.head = head->next;
    bucket.head_index = 0;
    release(head);
  }
  return record;
}

void EventQueue::grow(Bucket& bucket) {
  Chunk* chunk = free_;
  if (chunk != nullptr) {
    free_ = chunk->next;
    chunk->next = nullptr;
  } else {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk = chunks_.back().get();
  }
  if (bucket.tail == nullptr) {
    bucket.head = chunk;
    bucket.head_index = 0;
  } else {
    bucket.tail->next = chunk;
  }
  bucket.tail = chunk;
  bucket.tail_count = 0;
}

void EventQueue::push_outside_ring(EventRecord&& record) {
  SB_EXPECTS(record.time >= base_, "push at t=", record.time,
             " below the queue's last popped tick ", base_);
  overflow_.push_back(std::move(record));
  std::push_heap(overflow_.begin(), overflow_.end(), later);
}

void EventQueue::migrate_overflow() {
  // Overflow ticks all lie at or past the old window's end, so each one
  // lands in a bucket that is empty or holds only records migrated just
  // before it — heap order keeps every bucket in seq order.
  while (!overflow_.empty() && overflow_.front().time - base_ < kRingSize) {
    std::pop_heap(overflow_.begin(), overflow_.end(), later);
    const size_t slot = overflow_.back().time & kRingMask;
    append(ring_[slot], std::move(overflow_.back()));
    occupied_ |= slot_bit(slot);
    overflow_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// BinaryHeapEventQueue (reference)
// ---------------------------------------------------------------------------

// Manual sift with a moving hole: each level costs one move instead of the
// swap (three moves) std::push_heap/pop_heap would do.

void BinaryHeapEventQueue::sift_up(size_t i) {
  EventRecord moving = std::move(heap_[i]);
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!event_before(moving, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(moving);
}

void BinaryHeapEventQueue::sift_down(size_t i) {
  const size_t n = heap_.size();
  EventRecord moving = std::move(heap_[i]);
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && event_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!event_before(heap_[child], moving)) break;
    heap_[i] = std::move(heap_[child]);
    i = child;
  }
  heap_[i] = std::move(moving);
}

void BinaryHeapEventQueue::push(EventRecord&& record) {
  record.seq = next_seq_++;
  heap_.push_back(std::move(record));
  sift_up(heap_.size() - 1);
}

EventRecord BinaryHeapEventQueue::pop() {
  SB_EXPECTS(!heap_.empty(), "pop from empty event queue");
  EventRecord top = std::move(heap_.front());
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

const EventRecord* BinaryHeapEventQueue::peek() const {
  return heap_.empty() ? nullptr : &heap_.front();
}

}  // namespace sb::sim
