// Deep invariants of the relay-path machinery (§III-B): symmetry of relay
// links, rendezvous reachability, and decay semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/components.hpp"
#include "core/vitis_system.hpp"
#include "ids/hash.hpp"
#include "workload/scenario.hpp"

namespace vitis::core {
namespace {

class RelaySemantics : public ::testing::Test {
 protected:
  RelaySemantics() {
    workload::SyntheticScenarioParams params;
    params.subscriptions.nodes = 300;
    params.subscriptions.topics = 120;
    params.subscriptions.subs_per_node = 12;
    params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
    params.events = 40;
    params.seed = 77;
    scenario_ = std::make_unique<workload::SyntheticScenario>(
        workload::make_synthetic_scenario(params));
    system_ = workload::make_vitis(*scenario_, VitisConfig{}, 77);
    system_->run_cycles(35);
  }

  std::unique_ptr<workload::SyntheticScenario> scenario_;
  std::unique_ptr<VitisSystem> system_;
};

TEST_F(RelaySemantics, RelayLinksAreLargelySymmetric) {
  // Links are installed in pairs; asymmetry can only appear transiently
  // through aging. Right after a maintenance round it should be rare.
  std::size_t total = 0;
  std::size_t symmetric = 0;
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    const auto& relay = system_->relay_table(n);
    for (std::size_t t = 0; t < scenario_->subscriptions.topic_count(); ++t) {
      const auto topic = static_cast<ids::TopicIndex>(t);
      for (const RelayTable::Link& link : relay.links(topic)) {
        ++total;
        const auto back = system_->relay_table(link.peer).links(topic);
        if (std::find_if(back.begin(), back.end(), [&](const auto& b) {
              return b.peer == n;
            }) != back.end()) {
          ++symmetric;
        }
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(symmetric) / static_cast<double>(total),
            0.95);
}

TEST_F(RelaySemantics, GatewayLookupsTerminateAtRendezvous) {
  std::size_t checked = 0;
  for (std::size_t t = 0; t < 40; ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    for (const ids::NodeIndex gateway : system_->gateways_of(topic)) {
      const auto result =
          system_->lookup(gateway, ids::topic_ring_id(topic));
      EXPECT_TRUE(result.converged);
      // The lookup owner holds relay state for the topic (it is the meeting
      // point of all of the topic's relay paths) unless the gateway IS the
      // rendezvous itself.
      if (result.owner != gateway) {
        EXPECT_TRUE(system_->relay_table(result.owner).is_relay_for(topic))
            << "rendezvous " << result.owner << " lacks relay state for "
            << t;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(RelaySemantics, EveryRelayPathNodeKnowsTheTopic) {
  // Walk each gateway's current lookup path: all interior nodes must hold
  // relay state for the topic (they were installed this round or earlier).
  for (std::size_t t = 0; t < 25; ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    for (const ids::NodeIndex gateway : system_->gateways_of(topic)) {
      const auto result = system_->lookup(gateway, ids::topic_ring_id(topic));
      for (std::size_t i = 1; i < result.path.size(); ++i) {
        EXPECT_TRUE(system_->relay_table(result.path[i]).is_relay_for(topic))
            << "path node " << result.path[i] << " missing relay state";
      }
    }
  }
}

TEST_F(RelaySemantics, RelayStateDecaysWhenGatewayUnsubscribes) {
  // After every subscriber of a topic unsubscribes, nobody requests relay
  // paths for it anymore, so its relay links age on untouched tables: held
  // for exactly relay_ttl cycles, gone one cycle later. Pick the topic with
  // the fewest (but >= 1) subscribers.
  ids::TopicIndex topic = ids::kInvalidTopic;
  std::size_t fewest = ~std::size_t{0};
  for (std::size_t t = 0; t < scenario_->subscriptions.topic_count(); ++t) {
    const auto candidate = static_cast<ids::TopicIndex>(t);
    const std::size_t count =
        system_->subscriptions().subscribers(candidate).size();
    if (count > 0 && count < fewest) {
      fewest = count;
      topic = candidate;
    }
  }
  ASSERT_NE(topic, ids::kInvalidTopic);

  const auto subscribers = system_->subscriptions().subscribers(topic);
  const std::vector<ids::NodeIndex> frozen(subscribers.begin(),
                                           subscribers.end());
  for (const ids::NodeIndex s : frozen) system_->unsubscribe(s, topic);
  const auto holders = [&] {
    std::size_t count = 0;
    for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
      if (system_->relay_table(n).is_relay_for(topic)) ++count;
    }
    return count;
  };
  system_->run_cycles(system_->config().relay_ttl);
  EXPECT_GT(holders(), 0u) << "relay state expired before its TTL ran out";
  system_->run_cycles(1);
  EXPECT_EQ(holders(), 0u) << "relay state survived all gateways leaving";
}

TEST_F(RelaySemantics, MultiClusterTopicsAreBridgedByRelays) {
  const auto overlay = system_->overlay_snapshot();
  std::size_t bridged = 0;
  std::size_t multi = 0;
  for (std::size_t t = 0; t < scenario_->subscriptions.topic_count(); ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    const auto clusters =
        analysis::topic_clusters(overlay, system_->subscriptions(), topic);
    if (clusters.size() < 2) continue;
    ++multi;
    // Publishing from the first cluster must reach the others.
    const auto report = system_->publish(topic, clusters[0][0]);
    if (report.delivered == report.expected) ++bridged;
  }
  ASSERT_GT(multi, 0u);
  EXPECT_EQ(bridged, multi);
}

}  // namespace
}  // namespace vitis::core
