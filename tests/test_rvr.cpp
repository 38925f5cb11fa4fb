#include <gtest/gtest.h>

#include "baselines/rvr/rvr_system.hpp"
#include "ids/hash.hpp"
#include "sim/fault.hpp"
#include "workload/scenario.hpp"

namespace vitis::baselines::rvr {
namespace {

workload::SyntheticScenario scenario_for(std::uint64_t seed,
                                         std::size_t nodes = 300,
                                         std::size_t topics = 120) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = nodes;
  params.subscriptions.topics = topics;
  params.subscriptions.subs_per_node = 15;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 60;
  params.seed = seed;
  return workload::make_synthetic_scenario(params);
}

// The fixture runs at the cycle-engine worker count it is instantiated
// with. The output is bit-identical at any count, so every assertion holds
// at each; at 3 workers the relay refresh that builds the trees runs on
// the worker pool, which the thread-sanitizer job then races.
class RvrFixture : public ::testing::TestWithParam<std::size_t> {
 protected:
  RvrFixture() : scenario_(scenario_for(21)) {
    RvrConfig config;
    config.base.routing_table_size = 12;
    config.base.run_jobs = GetParam();
    config.tree_refresh_interval = 2;
    system_ = workload::make_rvr(scenario_, config, 21);
    system_->run_cycles(35);
  }

  workload::SyntheticScenario scenario_;
  std::unique_ptr<RvrSystem> system_;
};

INSTANTIATE_TEST_SUITE_P(RunJobs, RvrFixture,
                         ::testing::Values(std::size_t{1}, std::size_t{3}));

TEST_P(RvrFixture, SelectionIsSubscriptionOblivious) {
  // RVR tables contain only structural links: ring + small world.
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    for (const auto& e : system_->routing_table(n).entries()) {
      EXPECT_TRUE(overlay::is_structural(e.kind))
          << "node " << n << " holds a " << overlay::to_string(e.kind)
          << " link";
    }
  }
}

TEST_P(RvrFixture, MulticastTreesCoverSubscribers) {
  // Every subscriber of a topic must hold tree state for it after refresh.
  std::size_t checked = 0;
  for (std::size_t t = 0; t < 30; ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    std::size_t tree_size = 0;
    for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
      tree_size += system_->relay_table(n).is_relay_for(topic) ? 1 : 0;
    }
    for (const ids::NodeIndex s :
         system_->subscriptions().subscribers(topic)) {
      // Subscribers with the rendezvous role may have no outgoing links if
      // they are the whole tree; everyone else must be a member.
      if (tree_size > 1) {
        EXPECT_TRUE(system_->relay_table(s).is_relay_for(topic))
            << "subscriber " << s << " missing from tree of topic " << t;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(RvrFixture, TreesIncludeRelayInteriorNodes) {
  // Scribe trees route through uninterested nodes: at least one topic must
  // have non-subscriber tree members (that is RVR's overhead source).
  bool found_relay = false;
  for (std::size_t t = 0; t < scenario_.subscriptions.topic_count() && !found_relay; ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
      if (system_->relay_table(n).is_relay_for(topic) &&
          !system_->subscriptions().subscribes(n, topic)) {
        found_relay = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_relay);
}

TEST_P(RvrFixture, FullHitRatio) {
  system_->metrics().reset();
  const auto summary = workload::measure(*system_, scenario_.schedule);
  EXPECT_DOUBLE_EQ(summary.hit_ratio, 1.0);
  EXPECT_GT(summary.traffic_overhead_pct, 0.0);
}

TEST_P(RvrFixture, PublishRoutesThroughRendezvous) {
  const ids::TopicIndex topic = 3;
  const auto subscribers = system_->subscriptions().subscribers(topic);
  ASSERT_FALSE(subscribers.empty());
  const auto report = system_->publish(topic, subscribers[0]);
  EXPECT_EQ(report.delivered, report.expected);
  // Routing to the rendezvous plus tree depth: strictly positive delay for
  // topics with > 1 subscriber.
  if (report.expected > 0) {
    EXPECT_GT(report.delay_sum, 0u);
  }
}

TEST_P(RvrFixture, CutRouteNeverReachesTheTree) {
  // An open partition cuts the first hop of the publisher's route to the
  // rendezvous: the event never reaches the tree root, so nobody receives
  // it (the tree flood must not start at a rendezvous the event missed).
  sim::FaultConfig fault;
  fault.partitions.push_back(
      sim::PartitionWindow{0, 1'000'000, /*salt=*/0x5eedULL});
  system_->set_fault_plan(fault);
  std::size_t cut = 0;
  for (const auto& [topic, publisher] : scenario_.schedule) {
    const auto route = system_->lookup(publisher, ids::topic_ring_id(topic));
    if (route.path.size() < 2 ||
        !system_->fault_plan().partitioned(route.path[0], route.path[1])) {
      continue;
    }
    const auto report = system_->publish(topic, publisher);
    EXPECT_EQ(report.delivered, 0u);
    EXPECT_EQ(report.messages, 0u);
    ++cut;
  }
  EXPECT_GT(cut, 0u) << "no schedule route crosses the partition";
}

TEST_P(RvrFixture, TreeStateDecaysAfterLeave) {
  // Find a tree member for some topic, make it leave, and verify its state
  // is gone and the overlay still delivers after repair.
  const ids::TopicIndex topic = 5;
  const auto subscribers = system_->subscriptions().subscribers(topic);
  ASSERT_GT(subscribers.size(), 1u);
  const ids::NodeIndex victim = subscribers[0];
  system_->node_leave(victim);
  EXPECT_FALSE(system_->relay_table(victim).is_relay_for(topic));
  system_->run_cycles(10);
  system_->metrics().reset();
  const auto publisher = subscribers[1];
  const auto report = system_->publish(topic, publisher);
  EXPECT_EQ(report.delivered, report.expected);
}

TEST_P(RvrFixture, FootprintCountsTheTrees) {
  // The multicast trees are RVR's per-node state: when the node that is a
  // member of the most trees leaves, its tree links leave the footprint.
  ids::NodeIndex member = 0;
  std::size_t most = 0;
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    std::size_t trees = 0;
    for (std::size_t t = 0; t < scenario_.subscriptions.topic_count(); ++t) {
      const auto topic = static_cast<ids::TopicIndex>(t);
      if (system_->relay_table(n).is_relay_for(topic)) ++trees;
    }
    if (trees > most) {
      most = trees;
      member = n;
    }
  }
  ASSERT_GT(most, 0u);
  const std::size_t before = system_->memory_footprint();
  system_->node_leave(member);
  EXPECT_LT(system_->memory_footprint(), before);
}

TEST(RvrSystem, OverheadInsensitiveToCorrelation) {
  // The paper draws a single RVR line because RVR ignores subscriptions:
  // random vs high-correlation workloads must land within a few points.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 300;
  params.subscriptions.topics = 120;
  params.subscriptions.subs_per_node = 15;
  params.events = 60;
  params.seed = 31;

  params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
  const auto random_scenario = workload::make_synthetic_scenario(params);
  params.subscriptions.pattern =
      workload::CorrelationPattern::kHighCorrelation;
  const auto correlated_scenario = workload::make_synthetic_scenario(params);

  RvrConfig config;
  config.base.routing_table_size = 12;
  auto a = workload::make_rvr(random_scenario, config, 31);
  auto b = workload::make_rvr(correlated_scenario, config, 31);
  const auto sa = workload::run_measurement(*a, 35, random_scenario.schedule);
  const auto sb =
      workload::run_measurement(*b, 35, correlated_scenario.schedule);
  EXPECT_NEAR(sa.traffic_overhead_pct, sb.traffic_overhead_pct, 12.0);
}

TEST(RvrSystem, InvalidConfigRejected) {
  RvrConfig config;
  config.base.routing_table_size = 1;
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 10;
  params.subscriptions.topics = 5;
  params.subscriptions.subs_per_node = 2;
  const auto scenario = workload::make_synthetic_scenario(params);
  EXPECT_THROW(workload::make_rvr(scenario, config, 1), std::invalid_argument);
}

}  // namespace
}  // namespace vitis::baselines::rvr
