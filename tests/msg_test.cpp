// Tests for the message-passing substrate: the neighbour table NT (Fig 8)
// and the message envelope of the core vocabulary.

#include <gtest/gtest.h>

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

TEST(CoreMessages, KindsAreStable) {
  EXPECT_EQ(core::ActivateMsg{}.kind(), "Activate");
  EXPECT_EQ(core::AckMsg{}.kind(), "Ack");
  EXPECT_EQ(core::SelectMsg{}.kind(), "Select");
  EXPECT_EQ(core::ElectedAckMsg{}.kind(), "ElectedAck");
  EXPECT_EQ(core::MoveDoneMsg{}.kind(), "MoveDone");
  EXPECT_EQ(core::SonNotifyMsg{}.kind(), "SonNotify");
}

TEST(CoreMessages, CloneIsDeep) {
  core::ActivateMsg original;
  original.epoch = 7;
  original.father = BlockId{3};
  original.output = {1, 10};
  original.shortest_distance = 5;
  original.id_shortest = BlockId{9};
  const msg::MessagePtr copy = original.clone();
  const auto* clone = dynamic_cast<core::ActivateMsg*>(copy.get());
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->epoch, 7u);
  EXPECT_EQ(clone->father, BlockId{3});
  EXPECT_EQ(clone->shortest_distance, 5);
  EXPECT_EQ(clone->id_shortest, BlockId{9});
}

TEST(CoreMessages, PayloadBytesArePlausible) {
  // Delivery records carry these sizes (event traces print them); they
  // must at least cover the fields the paper's message formats list (§V.C).
  EXPECT_GE(core::ActivateMsg{}.payload_bytes(), 20u);
  EXPECT_GE(core::AckMsg{}.payload_bytes(), 13u);
  EXPECT_GE(core::SelectMsg{}.payload_bytes(), 8u);
  EXPECT_GE(core::MoveDoneMsg{}.payload_bytes(), 9u);
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
