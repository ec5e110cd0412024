#pragma once
// Per-block short-term memory of recently vacated cells.
//
// Tier-2 repositioning moves (see MotionPlanner) may not return to a cell
// the block recently left; this keeps detours purposeful and starves out
// blocks stuck in geometric pockets instead of letting them ping-pong.
// Entries expire after kTabuHorizon epochs so a parked block is re-offered
// its detours once the rest of the system has had time to change the
// geometry around it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lattice/vec2.hpp"

namespace sb::core {

/// Age (in epochs) after which a tabu entry stops blocking. An election
/// that finds no eligible block is also retried until kTabuHorizon + 1
/// consecutive empties accumulate (SmartBlockCode::root_conclude_election).
inline constexpr uint32_t kTabuHorizon = 64;

class TabuList {
 public:
  /// `capacity` bounds the number of remembered cells.
  explicit TabuList(uint32_t capacity = 8) : capacity_(capacity) {}

  /// Records a cell vacated at `epoch`, evicting the oldest entry if full.
  void push(lat::Vec2 cell, uint32_t epoch = 0) {
    if (capacity_ == 0) return;
    if (entries_.size() == capacity_) entries_.erase(entries_.begin());
    entries_.push_back({cell, epoch});
  }

  /// True when `cell` was vacated within the last kTabuHorizon epochs
  /// (relative to `current_epoch`).
  [[nodiscard]] bool contains(lat::Vec2 cell,
                              uint32_t current_epoch = 0) const {
    for (const Entry& e : entries_) {
      if (e.cell == cell && current_epoch - e.epoch <= kTabuHorizon) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] uint32_t capacity() const { return capacity_; }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    lat::Vec2 cell;
    uint32_t epoch;
  };

  uint32_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace sb::core
