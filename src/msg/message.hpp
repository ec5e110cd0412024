#pragma once
// Message abstraction for inter-block communication.
//
// Blocks exchange messages only across lateral contacts (paper Fig. 9).
// Concrete message types (Activate, Ack, Select, ...) live with the
// algorithm in src/core; this layer only defines the envelope.

#include <memory>
#include <string>
#include <string_view>

#include "util/pool.hpp"

namespace sb::msg {

class Message {
 public:
  virtual ~Message() = default;

  /// Cheap dispatch tag for hot receivers: 0 means "untagged". Protocol
  /// layers define their own non-zero values (core's election vocabulary
  /// uses AlgoMsgKind + 1) so a receiver can switch on a byte instead of
  /// running a dynamic_cast chain per delivered message.
  uint8_t dispatch_tag = 0;

  /// Messages are created and destroyed at event rates; all subclasses
  /// allocate through the thread-local pool (util/pool.hpp). The sized
  /// delete receives the dynamic type's size via the virtual destructor, so
  /// recycling works for every subclass without opt-in.
  static void* operator new(size_t bytes) { return util::pool_alloc(bytes); }
  static void operator delete(void* ptr, size_t bytes) noexcept {
    util::pool_free(ptr, bytes);
  }

  /// Stable kind tag, e.g. "Activate"; used for statistics (the paper's
  /// Remark 3 counts messages) and debugging.
  [[nodiscard]] virtual std::string_view kind() const = 0;

  /// Deep copy. Messages are value-like: flooding forwards clones.
  [[nodiscard]] virtual std::unique_ptr<Message> clone() const = 0;

  /// Estimated payload size in bytes (excluding the envelope); delivery
  /// records carry it as their tag, which event traces print.
  [[nodiscard]] virtual size_t payload_bytes() const { return 0; }

  /// One-line rendering for traces.
  [[nodiscard]] virtual std::string describe() const {
    return std::string(kind());
  }
};

using MessagePtr = std::unique_ptr<Message>;

}  // namespace sb::msg
