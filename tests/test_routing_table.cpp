#include <gtest/gtest.h>

#include "overlay/routing_table.hpp"

namespace vitis::overlay {
namespace {

RoutingEntry entry(ids::NodeIndex node, LinkKind kind = LinkKind::kFriend,
                   std::uint32_t age = 0) {
  return RoutingEntry{node, ids::RingId{node} * 10, kind, age};
}

TEST(RoutingTable, AddAndFind) {
  RoutingTable rt(3);
  EXPECT_TRUE(rt.add(entry(1)));
  EXPECT_FALSE(rt.add(entry(1)));  // duplicate rejected
  EXPECT_TRUE(rt.contains(1));
  const auto found = rt.find(1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, 10u);
  EXPECT_FALSE(rt.find(9).has_value());
}

TEST(RoutingTable, CapacityEnforced) {
  RoutingTable rt(2);
  EXPECT_TRUE(rt.add(entry(1)));
  EXPECT_TRUE(rt.add(entry(2)));
  EXPECT_FALSE(rt.add(entry(3)));
  EXPECT_EQ(rt.size(), 2u);
}

TEST(RoutingTable, AssignReplacesContents) {
  RoutingTable rt(4);
  rt.add(entry(9));
  rt.assign({entry(1, LinkKind::kSuccessor), entry(2, LinkKind::kFriend)});
  EXPECT_EQ(rt.size(), 2u);
  EXPECT_FALSE(rt.contains(9));
  EXPECT_TRUE(rt.contains(1));
}

TEST(RoutingTable, RemoveByNode) {
  RoutingTable rt(3);
  rt.add(entry(1));
  rt.add(entry(2));
  EXPECT_TRUE(rt.remove(1));
  EXPECT_FALSE(rt.remove(1));
  EXPECT_EQ(rt.size(), 1u);
}

TEST(RoutingTable, HeartbeatAging) {
  RoutingTable rt(3);
  rt.add(entry(1, LinkKind::kFriend, 0));
  rt.add(entry(2, LinkKind::kFriend, 0));
  rt.increment_ages();
  rt.increment_ages();
  rt.mark_fresh(1);
  rt.drop_older_than(1);
  EXPECT_EQ(rt.size(), 1u);
  EXPECT_TRUE(rt.contains(1));
  EXPECT_FALSE(rt.contains(2));
}

TEST(RoutingTable, KindQueries) {
  RoutingTable rt(5);
  rt.add(entry(1, LinkKind::kSuccessor));
  rt.add(entry(2, LinkKind::kPredecessor));
  rt.add(entry(3, LinkKind::kSmallWorld));
  rt.add(entry(4, LinkKind::kFriend));
  rt.add(entry(5, LinkKind::kFriend));
  EXPECT_EQ(rt.count_of(LinkKind::kFriend), 2u);
  EXPECT_EQ(rt.count_of(LinkKind::kCoverage), 0u);
  const auto sw = rt.first_of(LinkKind::kSmallWorld);
  ASSERT_TRUE(sw.has_value());
  EXPECT_EQ(sw->node, 3u);
  EXPECT_FALSE(rt.first_of(LinkKind::kCoverage).has_value());
}

TEST(LinkKind, StructuralClassification) {
  EXPECT_TRUE(is_structural(LinkKind::kPredecessor));
  EXPECT_TRUE(is_structural(LinkKind::kSuccessor));
  EXPECT_TRUE(is_structural(LinkKind::kSmallWorld));
  EXPECT_FALSE(is_structural(LinkKind::kFriend));
  EXPECT_FALSE(is_structural(LinkKind::kCoverage));
}

TEST(LinkKind, Names) {
  EXPECT_STREQ(to_string(LinkKind::kFriend), "friend");
  EXPECT_STREQ(to_string(LinkKind::kSmallWorld), "small-world");
}

}  // namespace
}  // namespace vitis::overlay
