#pragma once
// Thread-local small-object pool.
//
// The pool serves fixed size classes from per-thread free lists carved out
// of 64 KiB slabs: an allocation after warm-up is a pointer pop, a free is
// a pointer push, and no lock is ever taken. The library itself allocates
// nothing from it — messages travel by value inside their event records
// (msg/message.hpp). It stays only for bench_e2e's alloc/free replay and
// msg.pool_* counters (which read 0 on a run); once the benchmark drops
// them, the pool can go.
//
// Ownership rules:
//   - a node may be freed on any *live* thread (frees push onto the freeing
//     thread's list; slabs are never returned to the OS, so the memory stays
//     valid), but the intended pattern is thread-affine alloc/free.
//   - slabs live in a process-wide registry instead of ever being freed, so
//     leak checkers see them as reachable and late frees can never dangle.
//   - an exiting thread parks its free lists and partial slab; a thread that
//     would otherwise carve a new slab adopts parked memory first, so
//     looping over sweeps (fresh worker threads each time) reuses the same
//     slabs instead of growing without bound.
//
// Under AddressSanitizer the pool is compiled out (plain new/delete) so ASan
// keeps byte-precise use-after-free detection on pooled nodes; under
// ThreadSanitizer likewise, so recycled nodes cannot mask cross-thread
// races.

#include <cstddef>
#include <cstdint>

namespace sb::util {

/// Requests above this size bypass the pool and hit the global heap.
inline constexpr size_t kPoolMaxBytes = 256;

/// Allocates `bytes` (any size; large requests fall through to ::operator
/// new). Never returns nullptr; throws std::bad_alloc on exhaustion.
[[nodiscard]] void* pool_alloc(size_t bytes);

/// Returns memory obtained from pool_alloc. `bytes` must match the
/// allocation size (C++ sized deallocation provides it).
void pool_free(void* ptr, size_t bytes) noexcept;

/// Per-thread instrumentation, for tests and capacity planning.
struct PoolCounters {
  uint64_t allocations = 0;    ///< pool-served allocations on this thread
  uint64_t free_list_hits = 0; ///< allocations served by recycling a node
  uint64_t slabs_created = 0;  ///< 64 KiB slabs this thread has carved
};
[[nodiscard]] PoolCounters pool_counters();

}  // namespace sb::util
