#include <gtest/gtest.h>

#include <vector>

#include "pubsub/subscription.hpp"
#include "sim/rng.hpp"

namespace vitis::pubsub {
namespace {

TEST(SubscriptionSet, ConstructionDeduplicatesAndSorts) {
  SubscriptionSet set({5, 1, 3, 5, 1});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.topics()[0], 1u);
  EXPECT_EQ(set.topics()[1], 3u);
  EXPECT_EQ(set.topics()[2], 5u);
}

TEST(SubscriptionSet, AddRemoveContains) {
  SubscriptionSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.add(10));
  EXPECT_FALSE(set.add(10));
  EXPECT_TRUE(set.contains(10));
  EXPECT_FALSE(set.contains(11));
  EXPECT_TRUE(set.add(5));
  EXPECT_EQ(set.topics()[0], 5u);  // stays sorted after insertion
  EXPECT_EQ(set.position(5).value(), 0u);
  EXPECT_EQ(set.position(10).value(), 1u);
  EXPECT_TRUE(set.remove(10));
  EXPECT_FALSE(set.remove(10));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_FALSE(set.position(10).has_value());
}

TEST(SetOps, IntersectionAndUnionSizes) {
  SubscriptionSet a({1, 2, 3});
  SubscriptionSet b({3, 4});
  EXPECT_EQ(intersection_size(a, b), 1u);
  EXPECT_EQ(union_size(a, b), 4u);
  EXPECT_EQ(intersection_size(a, a), 3u);
  EXPECT_EQ(union_size(a, a), 3u);
  EXPECT_EQ(intersection_size(a, SubscriptionSet{}), 0u);
  EXPECT_EQ(union_size(a, SubscriptionSet{}), 3u);
}

TEST(SetOps, WeightedMatchesUnweightedWithUnitRates) {
  const std::vector<double> unit(10, 1.0);
  SubscriptionSet a({0, 2, 4, 6});
  SubscriptionSet b({2, 3, 6, 9});
  EXPECT_DOUBLE_EQ(weighted_intersection(a, b, unit),
                   static_cast<double>(intersection_size(a, b)));
  EXPECT_DOUBLE_EQ(weighted_union(a, b, unit),
                   static_cast<double>(union_size(a, b)));
}

TEST(SetOps, WeightsActuallyWeigh) {
  std::vector<double> weights(5, 1.0);
  weights[2] = 10.0;
  SubscriptionSet a({1, 2});
  SubscriptionSet b({2, 3});
  EXPECT_DOUBLE_EQ(weighted_intersection(a, b, weights), 10.0);
  EXPECT_DOUBLE_EQ(weighted_union(a, b, weights), 12.0);
}

class SetOpsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetOpsProperty, InclusionExclusionHoldsOnRandomSets) {
  sim::Rng rng(GetParam());
  const std::vector<double> unit(200, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ids::TopicIndex> ta;
    std::vector<ids::TopicIndex> tb;
    for (int i = 0; i < 30; ++i) {
      ta.push_back(static_cast<ids::TopicIndex>(rng.index(200)));
      tb.push_back(static_cast<ids::TopicIndex>(rng.index(200)));
    }
    SubscriptionSet a(ta);
    SubscriptionSet b(tb);
    EXPECT_EQ(union_size(a, b) + intersection_size(a, b), a.size() + b.size());
    EXPECT_DOUBLE_EQ(
        weighted_union(a, b, unit) + weighted_intersection(a, b, unit),
        static_cast<double>(a.size() + b.size()));
    // Symmetry.
    EXPECT_EQ(intersection_size(a, b), intersection_size(b, a));
    EXPECT_EQ(union_size(a, b), union_size(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsProperty,
                         ::testing::Values(3u, 17u, 101u, 2024u));

TEST(SubscriptionTable, ReverseIndexIsConsistent) {
  std::vector<SubscriptionSet> by_node;
  by_node.emplace_back(std::vector<ids::TopicIndex>{0, 1});
  by_node.emplace_back(std::vector<ids::TopicIndex>{1});
  by_node.emplace_back(std::vector<ids::TopicIndex>{});
  SubscriptionTable table(std::move(by_node), 3);

  EXPECT_EQ(table.node_count(), 3u);
  EXPECT_EQ(table.topic_count(), 3u);
  ASSERT_EQ(table.subscribers(0).size(), 1u);
  EXPECT_EQ(table.subscribers(0)[0], 0u);
  ASSERT_EQ(table.subscribers(1).size(), 2u);
  EXPECT_TRUE(table.subscribers(2).empty());
  EXPECT_TRUE(table.subscribes(0, 1));
  EXPECT_FALSE(table.subscribes(2, 1));
  EXPECT_NEAR(table.mean_subscriptions(), 1.0, 1e-9);
}

TEST(SubscriptionTable, ReverseIndexMatchesForwardOnRandomData) {
  sim::Rng rng(77);
  std::vector<SubscriptionSet> by_node;
  constexpr std::size_t kNodes = 100;
  constexpr std::size_t kTopics = 40;
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::vector<ids::TopicIndex> topics;
    for (int i = 0; i < 8; ++i) {
      topics.push_back(static_cast<ids::TopicIndex>(rng.index(kTopics)));
    }
    by_node.emplace_back(std::move(topics));
  }
  SubscriptionTable table(std::move(by_node), kTopics);
  std::size_t forward = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    forward += table.of(static_cast<ids::NodeIndex>(n)).size();
  }
  std::size_t reverse = 0;
  for (std::size_t t = 0; t < kTopics; ++t) {
    for (const ids::NodeIndex n :
         table.subscribers(static_cast<ids::TopicIndex>(t))) {
      EXPECT_TRUE(table.subscribes(n, static_cast<ids::TopicIndex>(t)));
      ++reverse;
    }
  }
  EXPECT_EQ(forward, reverse);
}

TEST(SubscriptionTable, EmptyTable) {
  SubscriptionTable table;
  EXPECT_EQ(table.node_count(), 0u);
  EXPECT_EQ(table.topic_count(), 0u);
  EXPECT_DOUBLE_EQ(table.mean_subscriptions(), 0.0);
}

}  // namespace
}  // namespace vitis::pubsub
