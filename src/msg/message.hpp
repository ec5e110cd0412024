#pragma once
// The message envelope for inter-block communication.
//
// Blocks exchange messages only across lateral contacts (paper Fig. 9).
// Concrete message types (Activate, Ack, Select, ...) live with the
// algorithm in src/core as plain structs; this layer defines the envelope
// that carries any of them by value: a protocol tag, the message's wire
// size, and a body of at most kMaxBodyBytes bytes. The envelope rides
// inside its delivery's sim::EventRecord, so sending or delivering a
// message allocates nothing and makes no virtual call on the message.

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "util/assert.hpp"

namespace sb::msg {

/// Largest body the envelope carries. A delivery record is 48 bytes; its
/// time, sequence number, endpoints and kind take 25, the envelope's two
/// header bytes 2.
inline constexpr size_t kMaxBodyBytes = 21;

/// Tags run below this bound, so per-kind counts are one array indexed by
/// tag (sim::SimStats::messages_by_tag).
inline constexpr size_t kTagCount = 16;

/// A protocol's message struct: trivially copyable, small enough for the
/// body, and naming itself through three constants —
///   kTag       the protocol's dispatch tag, which receivers switch on and
///              per-kind counts are kept by (0 is reserved for an empty
///              envelope; tags stay below kTagCount);
///   kName      the stable kind name the protocol reports those counts
///              under (the paper's Remark 3);
///   kWireBytes the size of the message's paper format on the wire, which
///              event traces print as the delivery's tag. It may exceed
///              sizeof: fields the envelope already carries (the sender
///              and receiver) still count.
template <typename M>
concept Body =
    std::is_trivially_copyable_v<M> && sizeof(M) <= kMaxBodyBytes &&
    std::is_default_constructible_v<M> && requires {
      { M::kTag } -> std::convertible_to<uint8_t>;
      { M::kName } -> std::convertible_to<std::string_view>;
      { M::kWireBytes } -> std::convertible_to<uint8_t>;
    };

class Message {
 public:
  /// An empty envelope (tag 0); delivery records always hold a packed one.
  Message() = default;

  template <Body M>
  [[nodiscard]] static Message pack(const M& body) {
    static_assert(M::kTag != 0, "tag 0 marks an empty envelope");
    static_assert(M::kTag < kTagCount, "tag past the per-tag counters");
    Message m;
    m.tag_ = M::kTag;
    m.wire_bytes_ = M::kWireBytes;
    std::memcpy(m.body_.data(), &body, sizeof(M));
    return m;
  }

  /// The body, as the struct it was packed from; the tag must match.
  template <Body M>
  [[nodiscard]] M unpack() const {
    SB_ASSERT(tag_ == M::kTag, "unpacking a message of tag ", int{tag_},
              " as ", M::kName);
    M body;
    std::memcpy(&body, body_.data(), sizeof(M));
    return body;
  }

  [[nodiscard]] uint8_t tag() const { return tag_; }
  [[nodiscard]] uint8_t wire_bytes() const { return wire_bytes_; }

 private:
  uint8_t tag_ = 0;
  uint8_t wire_bytes_ = 0;
  std::array<std::byte, kMaxBodyBytes> body_{};
};

static_assert(std::is_trivially_copyable_v<Message>);
static_assert(sizeof(Message) == 2 + kMaxBodyBytes && alignof(Message) == 1,
              "the envelope must pack into the event record's payload");

}  // namespace sb::msg
