#pragma once
// Per-block short-term memory of recently vacated cells.
//
// Tier-2 repositioning moves (see MotionPlanner) may not return to a cell
// the block recently left; this keeps detours purposeful and starves out
// blocks stuck in geometric pockets instead of letting them ping-pong.
// Entries expire after `horizon` epochs so a parked block is re-offered
// its detours once the rest of the system has had time to change the
// geometry around it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lattice/vec2.hpp"

namespace sb::core {

class TabuList {
 public:
  /// `capacity` bounds the number of remembered cells; `horizon` is the
  /// age (in epochs) after which an entry stops blocking.
  explicit TabuList(uint32_t capacity = 8, uint32_t horizon = 64)
      : capacity_(capacity), horizon_(horizon) {}

  /// Records a cell vacated at `epoch`, evicting the oldest entry if full.
  void push(lat::Vec2 cell, uint32_t epoch = 0) {
    if (capacity_ == 0) return;
    if (entries_.size() == capacity_) entries_.erase(entries_.begin());
    entries_.push_back({cell, epoch});
  }

  /// True when `cell` was vacated within the last `horizon` epochs
  /// (relative to `current_epoch`).
  [[nodiscard]] bool contains(lat::Vec2 cell,
                              uint32_t current_epoch = 0) const {
    for (const Entry& e : entries_) {
      if (e.cell == cell && current_epoch - e.epoch <= horizon_) return true;
    }
    return false;
  }

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] uint32_t capacity() const { return capacity_; }
  [[nodiscard]] uint32_t horizon() const { return horizon_; }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    lat::Vec2 cell;
    uint32_t epoch;
  };

  uint32_t capacity_;
  uint32_t horizon_;
  std::vector<Entry> entries_;
};

}  // namespace sb::core
