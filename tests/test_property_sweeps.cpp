// Broad parameterized sweeps: protocol invariants that must hold for every
// combination of subscription pattern and routing-table size.
#include <gtest/gtest.h>

#include <set>

#include "core/vitis_system.hpp"
#include "ids/hash.hpp"
#include "workload/scenario.hpp"

namespace vitis::core {
namespace {

using SweepParam = std::tuple<workload::CorrelationPattern, std::size_t>;

class VitisSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  VitisSweep() {
    const auto [pattern, rt_size] = GetParam();
    workload::SyntheticScenarioParams params;
    params.subscriptions.nodes = 250;
    params.subscriptions.topics = 100;
    params.subscriptions.subs_per_node = 12;
    params.subscriptions.pattern = pattern;
    params.events = 50;
    params.seed = 1234;
    scenario_ = std::make_unique<workload::SyntheticScenario>(
        workload::make_synthetic_scenario(params));
    VitisConfig config;
    config.routing_table_size = rt_size;
    system_ = workload::make_vitis(*scenario_, config, 1234);
    system_->run_cycles(30);
  }

  std::unique_ptr<workload::SyntheticScenario> scenario_;
  std::unique_ptr<VitisSystem> system_;
};

TEST_P(VitisSweep, FullDelivery) {
  system_->metrics().reset();
  const auto summary = workload::measure(*system_, scenario_->schedule);
  EXPECT_GE(summary.hit_ratio, 0.99);
}

TEST_P(VitisSweep, DegreeBoundHolds) {
  const auto [pattern, rt_size] = GetParam();
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    EXPECT_LE(system_->routing_table(n).size(), rt_size);
  }
}

TEST_P(VitisSweep, StructuralLinkBudgetRespected) {
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    const auto& rt = system_->routing_table(n);
    EXPECT_LE(rt.count_of(overlay::LinkKind::kSuccessor), 1u);
    EXPECT_LE(rt.count_of(overlay::LinkKind::kPredecessor), 1u);
    EXPECT_LE(rt.count_of(overlay::LinkKind::kSmallWorld),
              system_->config().structural_links - 2);
    EXPECT_LE(rt.count_of(overlay::LinkKind::kFriend),
              system_->config().friend_links());
  }
}

TEST_P(VitisSweep, NoSelfOrDuplicateLinks) {
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    std::set<ids::NodeIndex> seen;
    for (const auto& e : system_->routing_table(n).entries()) {
      EXPECT_NE(e.node, n);
      EXPECT_TRUE(seen.insert(e.node).second);
      // Cached ring ids must match the canonical hash.
      EXPECT_EQ(e.id, system_->ring_id(e.node));
    }
  }
}

TEST_P(VitisSweep, LookupPathsMonotonicallyApproachTarget) {
  // The defining property of greedy routing: every hop is strictly closer
  // to the target than the previous one.
  for (std::size_t t = 0; t < 15; ++t) {
    const ids::RingId target = ids::topic_ring_id(static_cast<ids::TopicIndex>(t));
    const auto result =
        system_->lookup(static_cast<ids::NodeIndex>(t * 11 % 250), target);
    for (std::size_t i = 1; i < result.path.size(); ++i) {
      EXPECT_TRUE(ids::closer_to(target, system_->ring_id(result.path[i]),
                                 system_->ring_id(result.path[i - 1])))
          << "hop " << i << " moved away from the target";
    }
  }
}

TEST_P(VitisSweep, GatewayProposalsPointAtSubscribers) {
  // A proposal's gateway must itself subscribe to the topic (gateways are
  // cluster members, §III-B).
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    for (const ids::TopicIndex topic : system_->subscriptions().of(n)) {
      const auto proposal = system_->proposal(n, topic);
      ASSERT_TRUE(proposal.has_value());
      if (proposal->gateway == ids::kInvalidNode) continue;
      EXPECT_TRUE(
          system_->subscriptions().subscribes(proposal->gateway, topic))
          << "node " << n << " proposes non-subscriber gateway for topic "
          << topic;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndSizes, VitisSweep,
    ::testing::Combine(
        ::testing::Values(workload::CorrelationPattern::kRandom,
                          workload::CorrelationPattern::kLowCorrelation,
                          workload::CorrelationPattern::kHighCorrelation),
        ::testing::Values(std::size_t{12}, std::size_t{20}, std::size_t{30})));

}  // namespace
}  // namespace vitis::core
