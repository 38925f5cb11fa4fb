// Overlay-health gauges and invariant monitors (analysis/health.hpp): each
// invariant gets a passing fixture and a violating fixture, and the gauges
// are checked against hand-built overlays with known answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/health.hpp"
#include "overlay/routing_table.hpp"
#include "pubsub/subscription.hpp"

namespace vitis::analysis {
namespace {

using overlay::LinkKind;
using overlay::RoutingEntry;
using overlay::RoutingTable;

RoutingEntry entry(ids::NodeIndex node, ids::RingId id, LinkKind kind) {
  RoutingEntry e;
  e.node = node;
  e.id = id;
  e.kind = kind;
  return e;
}

// --- successor_is_clockwise_closest ------------------------------------------

TEST(HealthInvariants, SuccessorClockwiseClosestHolds) {
  // self at 100; successor at 110 is clockwise-closer than the friend at
  // 200 and the predecessor behind us (huge clockwise distance).
  std::vector<RoutingEntry> entries{
      entry(1, 110, LinkKind::kSuccessor),
      entry(2, 200, LinkKind::kFriend),
      entry(3, 90, LinkKind::kPredecessor),
  };
  EXPECT_TRUE(successor_is_clockwise_closest(100, entries));
}

TEST(HealthInvariants, SuccessorClockwiseClosestViolated) {
  // The friend at 110 is clockwise-closer than the marked successor at 200:
  // the ring orientation is corrupted.
  std::vector<RoutingEntry> entries{
      entry(1, 200, LinkKind::kSuccessor),
      entry(2, 110, LinkKind::kFriend),
  };
  EXPECT_FALSE(successor_is_clockwise_closest(100, entries));
}

TEST(HealthInvariants, SuccessorCheckSkipsDistanceZeroEntries) {
  // A hash-collision entry at the self id (clockwise distance 0) cannot be
  // ordered on the ring; best_successor skips it, so the monitor must not
  // flag the successor for losing to it.
  std::vector<RoutingEntry> entries{
      entry(1, 150, LinkKind::kSuccessor),
      entry(2, 100, LinkKind::kFriend),  // same ring id as self
  };
  EXPECT_TRUE(successor_is_clockwise_closest(100, entries));
}

TEST(HealthInvariants, SuccessorCheckVacuousWithoutSuccessor) {
  std::vector<RoutingEntry> entries{entry(2, 110, LinkKind::kFriend)};
  EXPECT_TRUE(successor_is_clockwise_closest(100, entries));
  EXPECT_TRUE(successor_is_clockwise_closest(100, {}));
}

// --- gateway_depth_bounded ---------------------------------------------------

TEST(HealthInvariants, GatewayDepthBounded) {
  EXPECT_TRUE(gateway_depth_bounded(0, 3));
  EXPECT_TRUE(gateway_depth_bounded(3, 3));
  EXPECT_FALSE(gateway_depth_bounded(4, 3));  // violating fixture
}

// --- table_within_bounds -----------------------------------------------------

TEST(HealthInvariants, TableWithinBoundsHolds) {
  RoutingTable table(4);
  ASSERT_TRUE(table.add(entry(1, 10, LinkKind::kSuccessor)));
  ASSERT_TRUE(table.add(entry(2, 20, LinkKind::kFriend)));
  EXPECT_TRUE(table_within_bounds(/*self=*/0, table));
}

TEST(HealthInvariants, TableWithSelfLoopViolates) {
  RoutingTable table(4);
  ASSERT_TRUE(table.add(entry(7, 70, LinkKind::kFriend)));
  EXPECT_FALSE(table_within_bounds(/*self=*/7, table));
}

// --- view_ages ---------------------------------------------------------------

TEST(HealthGauges, ViewAgesMeanAndMax) {
  std::vector<RoutingTable> tables;
  tables.emplace_back(4);
  tables.emplace_back(4);
  tables.emplace_back(4);
  auto aged = entry(1, 10, LinkKind::kFriend);
  aged.age = 6;
  auto fresh = entry(2, 20, LinkKind::kFriend);
  fresh.age = 0;
  auto dead_nodes_entry = entry(0, 5, LinkKind::kFriend);
  dead_nodes_entry.age = 99;  // must be ignored: node 2 is dead
  ASSERT_TRUE(tables[0].add(aged));
  ASSERT_TRUE(tables[0].add(fresh));
  ASSERT_TRUE(tables[1].add(fresh));
  ASSERT_TRUE(tables[2].add(dead_nodes_entry));

  double mean = -1.0, max = -1.0;
  view_ages(
      tables.size(), [](ids::NodeIndex n) { return n != 2; },
      [&](ids::NodeIndex n) -> const RoutingTable& { return tables[n]; },
      mean, max);
  EXPECT_DOUBLE_EQ(mean, 2.0);  // (6 + 0 + 0) / 3
  EXPECT_DOUBLE_EQ(max, 6.0);
}

TEST(HealthGauges, ViewAgesEmptyUniverse) {
  double mean = -1.0, max = -1.0;
  std::vector<RoutingTable> tables;
  view_ages(
      0, [](ids::NodeIndex) { return true; },
      [&](ids::NodeIndex n) -> const RoutingTable& { return tables[n]; },
      mean, max);
  EXPECT_DOUBLE_EQ(mean, 0.0);
  EXPECT_DOUBLE_EQ(max, 0.0);
}

// --- HealthAnalyzer::mean_clusters_per_topic ---------------------------------

TEST(HealthGauges, MeanClustersPerTopic) {
  // Four nodes. Topic 0: subscribers {0,1,2}, only 0-1 connected -> two
  // clusters. Topic 1: subscriber {3} alone -> one cluster. Mean 1.5.
  pubsub::SubscriptionTable subs(
      {pubsub::SubscriptionSet({0}), pubsub::SubscriptionSet({0}),
       pubsub::SubscriptionSet({0}), pubsub::SubscriptionSet({1})},
      /*topic_count=*/2);
  std::vector<std::vector<ids::NodeIndex>> adjacency{
      {1}, {0}, {}, {}};

  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10, 20, 30, 40});
  const double mean = analyzer.mean_clusters_per_topic(
      adjacency, subs, [](ids::NodeIndex) { return true; });
  EXPECT_DOUBLE_EQ(mean, 1.5);
}

TEST(HealthGauges, MeanClustersSkipsDeadNodesAndEmptyTopics) {
  // Same layout, but node 2 (the isolated subscriber of topic 0) is dead,
  // so topic 0 merges to one cluster; topic 1's only subscriber is dead,
  // so the topic drops out of the mean entirely.
  pubsub::SubscriptionTable subs(
      {pubsub::SubscriptionSet({0}), pubsub::SubscriptionSet({0}),
       pubsub::SubscriptionSet({0}), pubsub::SubscriptionSet({1})},
      /*topic_count=*/2);
  std::vector<std::vector<ids::NodeIndex>> adjacency{
      {1}, {0}, {}, {}};

  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10, 20, 30, 40});
  const double mean = analyzer.mean_clusters_per_topic(
      adjacency, subs, [](ids::NodeIndex n) { return n < 2; });
  EXPECT_DOUBLE_EQ(mean, 1.0);

  // No topic has an alive subscriber -> 0 by convention.
  const double none = analyzer.mean_clusters_per_topic(
      adjacency, subs, [](ids::NodeIndex) { return false; });
  EXPECT_DOUBLE_EQ(none, 0.0);
}

TEST(HealthGauges, MeanClustersDoNotBridgeThroughNonSubscribers) {
  // Subscribers 0 and 1 of topic 0 meet only through node 2, which does
  // not subscribe: two clusters.
  pubsub::SubscriptionTable subs(
      {pubsub::SubscriptionSet({0}), pubsub::SubscriptionSet({0}),
       pubsub::SubscriptionSet()},
      /*topic_count=*/1);
  std::vector<std::vector<ids::NodeIndex>> adjacency{{2}, {2}, {0, 1}};

  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10, 20, 30});
  EXPECT_DOUBLE_EQ(analyzer.mean_clusters_per_topic(
                       adjacency, subs, [](ids::NodeIndex) { return true; }),
                   2.0);
}

TEST(HealthGauges, MeanClustersDoNotBridgeThroughDeadSubscribers) {
  // The bridge subscribes too, but it is dead: two clusters; alive, one.
  pubsub::SubscriptionTable subs(
      {pubsub::SubscriptionSet({0}), pubsub::SubscriptionSet({0}),
       pubsub::SubscriptionSet({0})},
      /*topic_count=*/1);
  std::vector<std::vector<ids::NodeIndex>> adjacency{{2}, {2}, {0, 1}};

  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10, 20, 30});
  EXPECT_DOUBLE_EQ(analyzer.mean_clusters_per_topic(
                       adjacency, subs, [](ids::NodeIndex n) { return n != 2; }),
                   2.0);
  EXPECT_DOUBLE_EQ(analyzer.mean_clusters_per_topic(
                       adjacency, subs, [](ids::NodeIndex) { return true; }),
                   1.0);
}

TEST(HealthGauges, MeanClustersKeepTopicsApartInOneCall) {
  // Topic 0's chain 0-1-2 is one cluster and reaches node 1. Topic 1 has
  // subscribers 0 and 2 only: node 1, reached for topic 0, must not join
  // them, so topic 1 has two clusters. Mean 1.5.
  pubsub::SubscriptionTable subs(
      {pubsub::SubscriptionSet({0, 1}), pubsub::SubscriptionSet({0}),
       pubsub::SubscriptionSet({0, 1})},
      /*topic_count=*/2);
  std::vector<std::vector<ids::NodeIndex>> adjacency{{1}, {0, 2}, {1}};

  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10, 20, 30});
  EXPECT_DOUBLE_EQ(analyzer.mean_clusters_per_topic(
                       adjacency, subs, [](ids::NodeIndex) { return true; }),
                   1.5);
}

// --- HealthAnalyzer::ring_consistency ----------------------------------------

TEST(HealthGauges, RingConsistencyCountsCorrectSuccessors) {
  // Ring order by id: node 0 (10) -> node 1 (20) -> node 2 (30) -> wraps.
  std::vector<RoutingTable> tables;
  for (int i = 0; i < 3; ++i) tables.emplace_back(4);
  ASSERT_TRUE(tables[0].add(entry(1, 20, LinkKind::kSuccessor)));  // correct
  ASSERT_TRUE(tables[1].add(entry(2, 30, LinkKind::kSuccessor)));  // correct
  ASSERT_TRUE(tables[2].add(entry(1, 20, LinkKind::kSuccessor)));  // wrong

  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10, 20, 30});
  const auto table_of = [&](ids::NodeIndex n) -> const RoutingTable& {
    return tables[n];
  };
  const double consistency = analyzer.ring_consistency(
      [](ids::NodeIndex) { return true; }, table_of);
  EXPECT_DOUBLE_EQ(consistency, 2.0 / 3.0);

  // With node 1 dead the true ring is 0 -> 2 -> 0: node 2's "wrong" link
  // still points at the dead node, node 0's successor should now be 2.
  const double after_death = analyzer.ring_consistency(
      [](ids::NodeIndex n) { return n != 1; }, table_of);
  EXPECT_DOUBLE_EQ(after_death, 0.0);
}

TEST(HealthGauges, RingConsistencyFollowsTheAliveSetBetweenCalls) {
  // Ring ids out of index order, with a tie (nodes 1 and 4 share id 50;
  // the lower index comes first). Ring order: 3 (5), 2 (20), 1 (50),
  // 4 (50), 5 (70), 0 (90). Each node points at its ring successor, except
  // node 5, which skips node 0.
  const std::vector<ids::RingId> ids{90, 50, 20, 5, 50, 70};
  const std::vector<ids::NodeIndex> successor{3, 4, 1, 2, 5, 3};
  std::vector<RoutingTable> tables;
  for (std::size_t n = 0; n < ids.size(); ++n) {
    tables.emplace_back(4);
    ASSERT_TRUE(tables[n].add(
        entry(successor[n], ids[successor[n]], LinkKind::kSuccessor)));
  }
  const auto table_of = [&](ids::NodeIndex n) -> const RoutingTable& {
    return tables[n];
  };
  // The gauge from scratch: sort the alive nodes, compare each successor.
  const auto expected = [&](const std::vector<bool>& alive) {
    std::vector<ids::NodeIndex> ring;
    for (ids::NodeIndex n = 0; n < ids.size(); ++n) {
      if (alive[n]) ring.push_back(n);
    }
    if (ring.size() < 2) return 1.0;
    std::sort(ring.begin(), ring.end(), [&](ids::NodeIndex a, ids::NodeIndex b) {
      return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
    });
    std::size_t consistent = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (successor[ring[i]] == ring[(i + 1) % ring.size()]) ++consistent;
    }
    return static_cast<double>(consistent) / static_cast<double>(ring.size());
  };

  HealthAnalyzer analyzer;
  analyzer.attach(ids);
  const std::vector<std::vector<bool>> samples{
      {true, true, true, true, true, true},     // 5/6: node 5 skips node 0
      {false, true, true, true, true, true},    // node 0 dead: 5/5
      {false, true, true, false, true, true},   // node 3 dead too: 3/4
      {true, true, true, true, true, true},     // both back: 5/6
      {true, false, false, false, false, true},  // two alive: 0/2
      {false, false, false, false, true, false},  // one alive: trivially 1
      {true, true, false, true, false, true},   // only node 0 wraps: 1/4
  };
  const std::vector<double> hand{5.0 / 6.0, 1.0, 0.75, 5.0 / 6.0,
                                 0.0,       1.0, 0.25};
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const std::vector<bool>& alive = samples[s];
    const double consistency = analyzer.ring_consistency(
        [&](ids::NodeIndex n) { return static_cast<bool>(alive[n]); },
        table_of);
    EXPECT_DOUBLE_EQ(consistency, expected(alive)) << "sample " << s;
    EXPECT_DOUBLE_EQ(consistency, hand[s]) << "sample " << s;
  }
}

TEST(HealthGauges, RingConsistencyTrivialBelowTwoNodes) {
  std::vector<RoutingTable> tables;
  tables.emplace_back(4);
  HealthAnalyzer analyzer;
  analyzer.attach(std::vector<ids::RingId>{10});
  const double consistency = analyzer.ring_consistency(
      [](ids::NodeIndex) { return true; },
      [&](ids::NodeIndex n) -> const RoutingTable& { return tables[n]; });
  EXPECT_DOUBLE_EQ(consistency, 1.0);
}

}  // namespace
}  // namespace vitis::analysis
