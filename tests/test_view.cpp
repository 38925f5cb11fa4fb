#include <gtest/gtest.h>

#include "gossip/view.hpp"

namespace vitis::gossip {
namespace {

Descriptor d(ids::NodeIndex node, std::uint32_t age = 0) {
  return Descriptor{node, ids::RingId{node} * 1000, age};
}

TEST(PartialView, InsertRespectsCapacity) {
  PartialView view(3);
  view.insert(d(1, 5));
  view.insert(d(2, 5));
  view.insert(d(3, 5));
  EXPECT_EQ(view.size(), 3u);
  // Newcomer younger than the oldest entry replaces it.
  view.insert(d(4, 1));
  EXPECT_EQ(view.size(), 3u);
  EXPECT_TRUE(view.contains(4));
  // Newcomer older than everyone is rejected.
  view.insert(d(5, 99));
  EXPECT_FALSE(view.contains(5));
}

TEST(PartialView, DuplicateKeepsFreshest) {
  PartialView view(4);
  view.insert(d(1, 7));
  view.insert(d(1, 2));
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view.entries()[0].age, 2u);
  // An older duplicate never overwrites a younger entry.
  view.insert(d(1, 9));
  EXPECT_EQ(view.entries()[0].age, 2u);
}

TEST(PartialView, MergeBatch) {
  PartialView view(5);
  const std::vector<Descriptor> batch{d(1), d(2), d(3)};
  view.merge(batch);
  EXPECT_EQ(view.size(), 3u);
}

TEST(PartialView, RemoveAndContains) {
  PartialView view(3);
  view.insert(d(1));
  EXPECT_TRUE(view.remove(1));
  EXPECT_FALSE(view.remove(1));
  EXPECT_FALSE(view.contains(1));
  EXPECT_TRUE(view.empty());
}

TEST(PartialView, AgingAndExpiry) {
  // Aging is what expires a descriptor: a full view gives its oldest slot
  // to any younger newcomer.
  PartialView view(2);
  view.insert(d(1, 0));
  view.insert(d(2, 3));
  view.increment_ages();
  EXPECT_EQ(view.entries()[0].age, 1u);
  EXPECT_EQ(view.entries()[1].age, 4u);
  view.insert(d(3, 2));
  EXPECT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.contains(1));
  EXPECT_FALSE(view.contains(2));
  EXPECT_TRUE(view.contains(3));
}

TEST(PartialView, ClearResets) {
  PartialView view(2);
  view.insert(d(1));
  view.clear();
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.capacity(), 2u);
}

}  // namespace
}  // namespace vitis::gossip
