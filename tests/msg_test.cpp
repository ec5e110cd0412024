// Tests for the message-passing substrate: the neighbour table NT (Fig 8)
// and the value envelope that carries the core vocabulary.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/messages.hpp"
#include "msg/neighbor_table.hpp"

namespace sb {
namespace {

using lat::BlockId;
using lat::Direction;

TEST(NeighborTable, TracksFourSides) {
  msg::NeighborTable nt;
  EXPECT_EQ(nt.attached_count(), 0);
  nt.set_neighbor(Direction::kNorth, BlockId{4});
  nt.set_neighbor(Direction::kWest, BlockId{9});
  EXPECT_EQ(nt.neighbor(Direction::kNorth), BlockId{4});
  EXPECT_EQ(nt.neighbor(Direction::kWest), BlockId{9});
  EXPECT_EQ(nt.neighbor(Direction::kEast), lat::kInvalidBlock);
  EXPECT_EQ(nt.attached_count(), 2);
  nt.clear(Direction::kNorth);
  EXPECT_EQ(nt.attached_count(), 1);
}

TEST(NeighborTable, SideOfFindsAttachedBlocks) {
  msg::NeighborTable nt;
  nt.set_neighbor(Direction::kSouth, BlockId{4});
  nt.set_neighbor(Direction::kWest, BlockId{9});
  EXPECT_EQ(nt.side_of(BlockId{4}), Direction::kSouth);
  EXPECT_EQ(nt.side_of(BlockId{9}), Direction::kWest);
  EXPECT_EQ(nt.side_of(BlockId{5}), std::nullopt);
  nt.clear(Direction::kWest);
  EXPECT_EQ(nt.side_of(BlockId{9}), std::nullopt);
}

TEST(CoreMessages, KindsAreStable) {
  EXPECT_EQ(core::ActivateMsg::kName, "Activate");
  EXPECT_EQ(core::AckMsg::kName, "Ack");
  EXPECT_EQ(core::SelectMsg::kName, "Select");
  EXPECT_EQ(core::ElectedAckMsg::kName, "ElectedAck");
  EXPECT_EQ(core::MoveDoneMsg::kName, "MoveDone");
  EXPECT_EQ(core::SonNotifyMsg::kName, "SonNotify");
}

TEST(CoreMessages, TagsAreDistinctAndNonZero) {
  const uint8_t tags[] = {core::ActivateMsg::kTag,   core::AckMsg::kTag,
                          core::SelectMsg::kTag,     core::ElectedAckMsg::kTag,
                          core::MoveDoneMsg::kTag,   core::SonNotifyMsg::kTag};
  for (size_t i = 0; i < std::size(tags); ++i) {
    EXPECT_NE(tags[i], 0);
    for (size_t j = 0; j < i; ++j) EXPECT_NE(tags[i], tags[j]);
  }
}

TEST(CoreMessages, PackUnpackRoundTrips) {
  core::ActivateMsg original;
  original.epoch = 7;
  original.output = {1, 10};
  original.shortest_distance = 5;
  original.id_shortest = BlockId{9};
  const msg::Message envelope = msg::Message::pack(original);
  EXPECT_EQ(envelope.tag(), core::ActivateMsg::kTag);
  EXPECT_EQ(envelope.wire_bytes(), core::ActivateMsg::kWireBytes);
  // The envelope is a value: a copy outlives the original and its source.
  const msg::Message copy = envelope;
  original.epoch = 99;
  const auto unpacked = copy.unpack<core::ActivateMsg>();
  EXPECT_EQ(unpacked.epoch, 7u);
  EXPECT_EQ(unpacked.output, (lat::Vec2{1, 10}));
  EXPECT_EQ(unpacked.shortest_distance, 5);
  EXPECT_EQ(unpacked.id_shortest, BlockId{9});

  core::MoveDoneMsg done;
  done.epoch = 3;
  done.mover = BlockId{12};
  done.reached_output = true;
  const auto back = msg::Message::pack(done).unpack<core::MoveDoneMsg>();
  EXPECT_EQ(back.epoch, 3u);
  EXPECT_EQ(back.mover, BlockId{12});
  EXPECT_TRUE(back.reached_output);
}

TEST(CoreMessagesDeath, UnpackChecksTheTag) {
  const msg::Message envelope = msg::Message::pack(core::AckMsg{});
  EXPECT_DEATH((void)envelope.unpack<core::SelectMsg>(), "Select");
}

TEST(CoreMessages, WireBytesMatchThePaperFormats) {
  // Delivery records carry these sizes (event traces print them). They
  // count every field the paper's formats list (§V.C) plus the epoch —
  // Activate's Father/Son and Ack's Son/Father included, though those
  // ride in the envelope as its sender and receiver.
  EXPECT_EQ(core::ActivateMsg::kWireBytes, 28);
  EXPECT_EQ(core::AckMsg::kWireBytes, 21);
  EXPECT_EQ(core::SonNotifyMsg::kWireBytes, 8);
  EXPECT_EQ(core::SelectMsg::kWireBytes, 8);
  EXPECT_EQ(core::ElectedAckMsg::kWireBytes, 8);
  EXPECT_EQ(core::MoveDoneMsg::kWireBytes, 9);
}

TEST(CoreMessages, DescribeRendersFields) {
  core::ActivateMsg m;
  m.epoch = 3;
  m.shortest_distance = 4;
  m.id_shortest = BlockId{8};
  const std::string text = m.describe();
  EXPECT_NE(text.find("e=3"), std::string::npos);
  EXPECT_NE(text.find("4"), std::string::npos);
}

}  // namespace
}  // namespace sb
