#pragma once
// The message vocabulary of the distributed election (paper §V.C).
//
//   Activate [Father, Son, O, ShortestDistance, IDshortest]
//   Ack      [Son, Father, ShortestDistance, IDshortest]
//   Select   - routed from the Root to the elected block down the
//              father/son tree
//   ElectedAck - routed from the elected block back up to the Root
//   MoveDone - flooded after the elected block's hop so the Root can start
//              the next iteration (DESIGN.md, interpretation note 3); its
//              reached_output flag doubles as the termination broadcast.
//
// Each message is a plain struct that travels by value in the envelope of
// msg/message.hpp. Activate's Father/Son and Ack's Son/Father are always
// the envelope's sender and receiver, so the structs do not repeat them;
// kWireBytes still counts them, keeping the paper's message sizes.

#include <string>
#include <string_view>

#include "core/distance.hpp"
#include "lattice/block_id.hpp"
#include "lattice/vec2.hpp"
#include "msg/message.hpp"
#include "util/fmt.hpp"

namespace sb::core {

/// Epoch = the iteration counter IT of the paper's Algorithm 1. Every
/// message carries it; stale-epoch messages are discarded on receipt.
using Epoch = uint32_t;

/// Closed set of algorithm message kinds, ordered roughly by delivery
/// frequency (Activate/Ack/MoveDone dominate: ~N of each per election).
enum class AlgoMsgKind : uint8_t {
  kActivate,
  kAck,
  kMoveDone,
  kSelect,
  kElectedAck,
  kSonNotify,
};

/// Envelope tag of an algorithm message kind (0 stays the empty envelope).
[[nodiscard]] constexpr uint8_t algo_tag(AlgoMsgKind kind) {
  return static_cast<uint8_t>(kind) + 1;
}

struct ActivateMsg {
  static constexpr uint8_t kTag = algo_tag(AlgoMsgKind::kActivate);
  static constexpr std::string_view kName = "Activate";
  static constexpr uint8_t kWireBytes =
      sizeof(Epoch) + 2 * sizeof(lat::BlockId) + sizeof(lat::Vec2) +
      sizeof(int32_t) + sizeof(lat::BlockId);

  Epoch epoch = 0;
  lat::Vec2 output;          // location of O
  int32_t shortest_distance = kInfiniteDistance;
  lat::BlockId id_shortest;  // block with the shortest recorded distance

  [[nodiscard]] std::string describe() const {
    return fmt("Activate[e={} best={}@{}]", epoch,
               shortest_distance == kInfiniteDistance ? -1
                                                      : shortest_distance,
               id_shortest);
  }
};

struct AckMsg {
  static constexpr uint8_t kTag = algo_tag(AlgoMsgKind::kAck);
  static constexpr std::string_view kName = "Ack";
  static constexpr uint8_t kWireBytes =
      sizeof(Epoch) + 2 * sizeof(lat::BlockId) + sizeof(int32_t) +
      sizeof(lat::BlockId) + 1;

  Epoch epoch = 0;
  int32_t shortest_distance = kInfiniteDistance;
  lat::BlockId id_shortest;
  /// True for a subtree report; false for the immediate ack a block sends
  /// when it receives an Activate while already engaged (the sender must
  /// not count it as a son).
  bool engaged = true;
};

/// Fault-tolerance extension only: a block that adopts a father replies
/// immediately with this contact notice (its subtree Ack may legitimately
/// take unbounded time, but *some* reply - reject-Ack or SonNotify - must
/// arrive within a couple of link latencies; silence identifies a dead
/// neighbour).
struct SonNotifyMsg {
  static constexpr uint8_t kTag = algo_tag(AlgoMsgKind::kSonNotify);
  static constexpr std::string_view kName = "SonNotify";
  static constexpr uint8_t kWireBytes = sizeof(Epoch) + sizeof(lat::BlockId);

  Epoch epoch = 0;
  lat::BlockId son;
};

struct SelectMsg {
  static constexpr uint8_t kTag = algo_tag(AlgoMsgKind::kSelect);
  static constexpr std::string_view kName = "Select";
  static constexpr uint8_t kWireBytes = sizeof(Epoch) + sizeof(lat::BlockId);

  Epoch epoch = 0;
  lat::BlockId target;  // the elected block
};

struct ElectedAckMsg {
  static constexpr uint8_t kTag = algo_tag(AlgoMsgKind::kElectedAck);
  static constexpr std::string_view kName = "ElectedAck";
  static constexpr uint8_t kWireBytes = sizeof(Epoch) + sizeof(lat::BlockId);

  Epoch epoch = 0;
  lat::BlockId elected;
};

struct MoveDoneMsg {
  static constexpr uint8_t kTag = algo_tag(AlgoMsgKind::kMoveDone);
  static constexpr std::string_view kName = "MoveDone";
  static constexpr uint8_t kWireBytes =
      sizeof(Epoch) + sizeof(lat::BlockId) + 1;

  Epoch epoch = 0;
  lat::BlockId mover;
  /// True when the hop landed on O: the path is complete and every block
  /// (including the Root) stops.
  bool reached_output = false;
};

static_assert(msg::Body<ActivateMsg> && msg::Body<AckMsg> &&
              msg::Body<SonNotifyMsg> && msg::Body<SelectMsg> &&
              msg::Body<ElectedAckMsg> && msg::Body<MoveDoneMsg>);

}  // namespace sb::core
