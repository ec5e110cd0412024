#pragma once
// Counters for the quantities the paper reasons about:
//   Remark 2 - number of distance computations   O(N^3)
//   Remark 3 - number of messages                O(N^3)  (from sim stats)
//   Remark 4 - number of block hops              O(N^2)
// plus the elementary-move count of the Figs 10-11 example (55 moves).

#include <cstdint>

#include "util/parallel_counter.hpp"

namespace sb::core {

struct ReconfigMetrics {
  /// Elections initiated by the Root (one per Algorithm-1 iteration).
  uint64_t elections_started = 0;
  /// Elections that produced an elected block.
  uint64_t elections_completed = 0;
  /// One-cell hops performed by elected blocks (Remark 4's metric).
  uint64_t hops = 0;
  /// Subset of hops that were tier-2 repositioning detours.
  uint64_t repositioning_hops = 0;
  /// dBO evaluations (Remark 2's metric): one per block activation.
  util::ParallelCounter distance_computations;
  /// Election restarts triggered by the fault-tolerance extension.
  uint64_t election_restarts = 0;

  /// Terminal status.
  bool complete = false;  // a block reached O; shortest path built
  bool blocked = false;   // no eligible block was found

  /// Epoch (iteration counter IT) at termination.
  uint32_t final_epoch = 0;
};

}  // namespace sb::core
