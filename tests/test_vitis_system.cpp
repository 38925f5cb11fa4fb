#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/components.hpp"
#include "core/vitis_system.hpp"
#include "ids/hash.hpp"
#include "workload/scenario.hpp"
#include "workload/twitter.hpp"

namespace vitis::core {
namespace {

workload::SyntheticScenario small_scenario(
    workload::CorrelationPattern pattern, std::uint64_t seed = 42,
    std::size_t nodes = 300, std::size_t topics = 120) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = nodes;
  params.subscriptions.topics = topics;
  params.subscriptions.subs_per_node = 15;
  params.subscriptions.pattern = pattern;
  params.events = 60;
  params.seed = seed;
  return workload::make_synthetic_scenario(params);
}

class VitisSystemFixture : public ::testing::Test {
 protected:
  VitisSystemFixture()
      : scenario_(small_scenario(workload::CorrelationPattern::kHighCorrelation)) {
    VitisConfig config;
    config.routing_table_size = 12;
    system_ = workload::make_vitis(scenario_, config, 42);
    system_->run_cycles(35);
  }

  workload::SyntheticScenario scenario_;
  std::unique_ptr<VitisSystem> system_;
};

TEST_F(VitisSystemFixture, ConfigValidation) {
  VitisConfig bad;
  bad.routing_table_size = 2;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = VitisConfig{};
  bad.structural_links = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = VitisConfig{};
  bad.structural_links = 20;  // > routing_table_size
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = VitisConfig{};
  bad.gateway_depth = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(VitisConfig{}.validate());
}

TEST_F(VitisSystemFixture, RoutingTablesRespectBoundAndKinds) {
  for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
    const auto& rt = system_->routing_table(n);
    EXPECT_LE(rt.size(), system_->config().routing_table_size);
    // Exactly one successor and one predecessor once converged.
    EXPECT_LE(rt.count_of(overlay::LinkKind::kSuccessor), 1u);
    EXPECT_LE(rt.count_of(overlay::LinkKind::kPredecessor), 1u);
    // No self links, no duplicates (assign() enforces, but verify end
    // state).
    std::set<ids::NodeIndex> seen;
    for (const auto& e : rt.entries()) {
      EXPECT_NE(e.node, n);
      EXPECT_TRUE(seen.insert(e.node).second);
    }
  }
}

TEST_F(VitisSystemFixture, RingConvergesToTrueNeighbors) {
  // Compute true successors by sorting ring ids.
  const std::size_t n = system_->node_count();
  std::vector<ids::NodeIndex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<ids::NodeIndex>(i);
  std::sort(order.begin(), order.end(),
            [&](ids::NodeIndex a, ids::NodeIndex b) {
              return system_->ring_id(a) < system_->ring_id(b);
            });
  std::size_t correct = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const ids::NodeIndex node = order[pos];
    const ids::NodeIndex true_succ = order[(pos + 1) % n];
    const auto succ =
        system_->routing_table(node).first_of(overlay::LinkKind::kSuccessor);
    if (succ.has_value() && succ->node == true_succ) ++correct;
  }
  EXPECT_GE(correct, n - n / 50);  // ≥ 98% correct ring links
}

TEST_F(VitisSystemFixture, LookupsConvergeToGlobalRendezvous) {
  std::size_t exact = 0;
  constexpr std::size_t kProbes = 40;
  for (std::size_t t = 0; t < kProbes; ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    const auto expected = system_->global_rendezvous(topic);
    const auto result =
        system_->lookup(static_cast<ids::NodeIndex>(t * 7 % 300),
                        ids::topic_ring_id(topic));
    EXPECT_TRUE(result.converged);
    if (result.owner == expected) ++exact;
  }
  EXPECT_GE(exact, kProbes - 2);  // ring imperfections may cost a couple
}

TEST_F(VitisSystemFixture, FullHitRatioAfterConvergence) {
  system_->metrics().reset();
  const auto summary = workload::measure(*system_, scenario_.schedule);
  EXPECT_DOUBLE_EQ(summary.hit_ratio, 1.0);
  EXPECT_GT(summary.delay_hops, 0.0);
}

TEST_F(VitisSystemFixture, EveryMultiClusterTopicHasGateways) {
  const auto overlay = system_->overlay_snapshot();
  for (std::size_t t = 0; t < scenario_.subscriptions.topic_count(); ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    const auto clusters =
        analysis::topic_clusters(overlay, system_->subscriptions(), topic);
    if (clusters.empty()) continue;
    const auto gateways = system_->gateways_of(topic);
    // At least one gateway per disjoint cluster is required for
    // connectivity; the election guarantees >= 1 per cluster.
    EXPECT_GE(gateways.size(), clusters.size()) << "topic " << t;
  }
}

TEST_F(VitisSystemFixture, GatewaysEstablishRelayState) {
  // For a topic with >= 2 clusters, some relay node must exist.
  const auto overlay = system_->overlay_snapshot();
  bool found_multi_cluster = false;
  for (std::size_t t = 0; t < scenario_.subscriptions.topic_count(); ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    const auto clusters =
        analysis::topic_clusters(overlay, system_->subscriptions(), topic);
    if (clusters.size() < 2) continue;
    found_multi_cluster = true;
    std::size_t relay_holders = 0;
    for (ids::NodeIndex n = 0; n < system_->node_count(); ++n) {
      if (system_->relay_table(n).is_relay_for(topic)) ++relay_holders;
    }
    EXPECT_GE(relay_holders, 2u) << "topic " << t;
  }
  EXPECT_TRUE(found_multi_cluster) << "test needs a multi-cluster topic";
}

TEST_F(VitisSystemFixture, PublishReportsAreInternallyConsistent) {
  system_->metrics().reset();
  for (const auto& [topic, publisher] : scenario_.schedule) {
    const auto report = system_->publish(topic, publisher);
    EXPECT_LE(report.delivered, report.expected);
    EXPECT_GE(report.messages, report.delivered);
    if (report.delivered > 0) {
      EXPECT_GE(report.delay_sum, report.delivered);  // every hop >= 1
      EXPECT_LE(report.max_delay, report.delay_sum);
    }
  }
}

TEST_F(VitisSystemFixture, DelayStaysWithinLogSquaredBound) {
  // §III-B: propagation delay is O(log² N + d). Check the empirical worst
  // case against a generous constant times that bound.
  system_->metrics().reset();
  std::size_t worst = 0;
  for (const auto& [topic, publisher] : scenario_.schedule) {
    worst = std::max(worst, system_->publish(topic, publisher).max_delay);
  }
  const double log2n = std::log2(static_cast<double>(system_->node_count()));
  EXPECT_LE(static_cast<double>(worst),
            2.0 * (log2n * log2n) + system_->config().gateway_depth);
}

TEST_F(VitisSystemFixture, OutsidePublisherHandsOffToRendezvous) {
  // §III-C: a publisher outside every cluster of the topic (neither a
  // subscriber nor a relay) first routes the event greedily toward the
  // rendezvous node, which forwards it into the topic's clusters.
  const ids::TopicIndex topic = 0;
  ASSERT_GT(system_->subscriptions().subscribers(topic).size(), 1u);
  ids::NodeIndex outsider = 0;
  while (system_->subscriptions().subscribes(outsider, topic) ||
         system_->relay_table(outsider).is_relay_for(topic) ||
         outsider == system_->global_rendezvous(topic)) {
    ++outsider;
  }
  const auto route = system_->lookup(outsider, ids::topic_ring_id(topic));
  ASSERT_GT(route.path.size(), 1u);

  support::RecorderConfig recorder;
  recorder.enabled = true;
  recorder.trace_rate = 1.0;
  system_->configure_recorder(recorder);
  const auto report = system_->publish(topic, outsider);
  EXPECT_GT(report.expected, 0u);
  EXPECT_EQ(report.delivered, report.expected);

  // The trace starts with the whole greedy route, its first hop leaving
  // the publisher, before the flood.
  const auto& traces = system_->recorder()->traces();
  ASSERT_EQ(traces.size(), 1u);
  const auto& hops = traces[0].hops;
  ASSERT_GE(hops.size(), route.path.size() - 1);
  EXPECT_EQ(hops[0].from, outsider);
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    const auto& traced = hops[i - 1];
    EXPECT_TRUE(traced.route);
    EXPECT_EQ(traced.to, route.path[i]);
    EXPECT_EQ(traced.hop, i);
  }
}

TEST(VitisSystem, ChurnJoinLeaveRecovery) {
  auto scenario =
      small_scenario(workload::CorrelationPattern::kLowCorrelation, 7, 200, 80);
  VitisConfig config;
  config.routing_table_size = 12;
  auto system = workload::make_vitis(scenario, config, 7);
  system->run_cycles(30);

  // Kill 25% of the network, then let gossip repair.
  for (ids::NodeIndex n = 0; n < 200; n += 4) system->node_leave(n);
  EXPECT_EQ(system->alive_count(), 150u);
  system->run_cycles(20);

  system->metrics().reset();
  std::size_t expected_total = 0;
  std::size_t delivered_total = 0;
  for (const auto& [topic, publisher] : scenario.schedule) {
    if (!system->is_alive(publisher)) continue;
    const auto report = system->publish(topic, publisher);
    expected_total += report.expected;
    delivered_total += report.delivered;
  }
  ASSERT_GT(expected_total, 0u);
  EXPECT_GE(static_cast<double>(delivered_total) /
                static_cast<double>(expected_total),
            0.99);

  // Rejoin and verify the system absorbs the nodes again.
  for (ids::NodeIndex n = 0; n < 200; n += 4) system->node_join(n);
  EXPECT_EQ(system->alive_count(), 200u);
  system->run_cycles(20);
  system->metrics().reset();
  const auto summary = workload::measure(*system, scenario.schedule);
  EXPECT_GE(summary.hit_ratio, 0.99);
}

TEST(VitisSystem, DeadNodesHoldNoState) {
  auto scenario =
      small_scenario(workload::CorrelationPattern::kHighCorrelation, 9, 150, 60);
  auto system = workload::make_vitis(scenario, VitisConfig{}, 9);
  system->run_cycles(20);
  system->node_leave(5);
  EXPECT_FALSE(system->is_alive(5));
  EXPECT_EQ(system->routing_table(5).size(), 0u);
  EXPECT_EQ(system->relay_table(5).topic_count(), 0u);
  // Idempotent leave and join.
  system->node_leave(5);
  system->node_join(5);
  system->node_join(5);
  EXPECT_TRUE(system->is_alive(5));
}

TEST(VitisSystem, ProfilesStartAsSelfProposalsPerTopic) {
  // Construction gives every node one proposal slot per subscribed topic,
  // each proposing the node itself, and an empty relay table.
  auto scenario =
      small_scenario(workload::CorrelationPattern::kRandom, 15, 60, 30);
  auto system = workload::make_vitis(scenario, VitisConfig{}, 15);
  for (ids::NodeIndex n = 0; n < system->node_count(); ++n) {
    const auto topics = system->subscriptions().of(n).topics();
    ASSERT_EQ(system->profile(n).size(), topics.size());
    for (const ids::TopicIndex topic : topics) {
      EXPECT_EQ(system->proposal(n, topic)->gateway, n);
      EXPECT_EQ(system->proposal(n, topic)->hops, 0u);
    }
    EXPECT_EQ(system->relay_table(n).link_count(), 0u);
  }
}

TEST(VitisSystem, ChurnRestartsProposalsFromSelf) {
  // Leave and rejoin reset the volatile state: every proposal falls back
  // to the node itself, while the slots (one per subscribed topic) stay.
  auto scenario = small_scenario(
      workload::CorrelationPattern::kHighCorrelation, 17, 150, 60);
  auto system = workload::make_vitis(scenario, VitisConfig{}, 17);
  system->run_cycles(20);
  // A node that adopted a remote gateway for some topic.
  ids::NodeIndex node = 0;
  const auto follows_remote_gateway = [&](ids::NodeIndex n) {
    const auto topics = system->subscriptions().of(n).topics();
    return std::any_of(topics.begin(), topics.end(),
                       [&](ids::TopicIndex t) {
                         return !system->is_gateway(n, t);
                       });
  };
  while (node < system->node_count() && !follows_remote_gateway(node)) {
    ++node;
  }
  ASSERT_LT(node, system->node_count());
  const auto topics = system->subscriptions().of(node).topics();
  const auto expect_self_proposals = [&] {
    ASSERT_EQ(system->profile(node).size(), topics.size());
    for (const ids::TopicIndex topic : topics) {
      EXPECT_TRUE(system->is_gateway(node, topic)) << "topic " << topic;
    }
  };
  system->node_leave(node);
  expect_self_proposals();
  system->node_join(node);
  expect_self_proposals();
}

TEST(VitisSystem, StartOfflineHasNoAliveNodes) {
  auto scenario =
      small_scenario(workload::CorrelationPattern::kRandom, 11, 50, 30);
  auto system =
      workload::make_vitis(scenario, VitisConfig{}, 11, /*start_online=*/false);
  EXPECT_EQ(system->alive_count(), 0u);
  for (ids::NodeIndex n = 0; n < 50; ++n) system->node_join(n);
  EXPECT_EQ(system->alive_count(), 50u);
  system->run_cycles(25);
  system->metrics().reset();
  const auto summary = workload::measure(*system, scenario.schedule);
  EXPECT_GE(summary.hit_ratio, 0.99);
}

TEST(VitisSystem, DeterministicForFixedSeed) {
  auto scenario =
      small_scenario(workload::CorrelationPattern::kLowCorrelation, 13, 120, 60);
  VitisConfig config;
  auto a = workload::make_vitis(scenario, config, 99);
  auto b = workload::make_vitis(scenario, config, 99);
  a->run_cycles(15);
  b->run_cycles(15);
  a->metrics().reset();
  b->metrics().reset();
  const auto sa = workload::measure(*a, scenario.schedule);
  const auto sb = workload::measure(*b, scenario.schedule);
  EXPECT_DOUBLE_EQ(sa.hit_ratio, sb.hit_ratio);
  EXPECT_DOUBLE_EQ(sa.traffic_overhead_pct, sb.traffic_overhead_pct);
  EXPECT_DOUBLE_EQ(sa.delay_hops, sb.delay_hops);
}

TEST(VitisSystem, MoreFriendsLowerOverheadOnCorrelatedWorkload) {
  // The Fig. 4(a) trend in miniature: friends=4 vs friends=9 of 12 links.
  auto scenario = small_scenario(
      workload::CorrelationPattern::kHighCorrelation, 17, 400, 150);
  VitisConfig few_friends;
  few_friends.routing_table_size = 12;
  few_friends.structural_links = 8;  // 4 friends
  VitisConfig many_friends;
  many_friends.routing_table_size = 12;
  many_friends.structural_links = 3;  // 9 friends
  auto a = workload::make_vitis(scenario, few_friends, 17);
  auto b = workload::make_vitis(scenario, many_friends, 17);
  const auto sa = workload::run_measurement(*a, 35, scenario.schedule);
  const auto sb = workload::run_measurement(*b, 35, scenario.schedule);
  EXPECT_LT(sb.traffic_overhead_pct, sa.traffic_overhead_pct);
}

// Crashes the node most proposals name as their gateway, snapshots every
// profile, runs one cycle, and replays that cycle's election sweep as
// collect-then-elect: per node, ascending, buffer every neighbor's proposal
// for each shared topic, elect each topic with elect_gateway(), and write
// the results back before the next node reads them. Every (node, topic)
// proposal must match the system's.
void expect_sweep_matches_replay(VitisSystem& system) {
  const std::size_t n = system.node_count();
  std::vector<std::size_t> named(n, 0);
  for (ids::NodeIndex node = 0; node < n; ++node) {
    const Profile& profile = system.profile(node);
    for (std::size_t i = 0; i < profile.size(); ++i) {
      const ids::NodeIndex gateway = profile.proposal_at(i).gateway;
      if (gateway != node) ++named[gateway];
    }
  }
  const auto crashed = static_cast<ids::NodeIndex>(
      std::max_element(named.begin(), named.end()) - named.begin());
  ASSERT_GT(named[crashed], 0u);
  system.node_leave(crashed);

  std::vector<Profile> replay;
  for (ids::NodeIndex node = 0; node < n; ++node) {
    replay.push_back(system.profile(node));
  }
  system.run_cycles(1);

  // The adjacency the sweep read: the cycle's routing tables over live
  // nodes, symmetrized. Only the relay-refresh stage runs after the sweep,
  // and it leaves routing tables alone.
  std::vector<std::vector<ids::NodeIndex>> adjacency(n);
  for (ids::NodeIndex node = 0; node < n; ++node) {
    if (!system.is_alive(node)) continue;
    for (const auto& entry : system.routing_table(node).entries()) {
      if (entry.node == node || !system.is_alive(entry.node)) continue;
      adjacency[node].push_back(entry.node);
      adjacency[entry.node].push_back(node);
    }
  }
  for (auto& neighbors : adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }

  std::size_t changed = 0;
  for (ids::NodeIndex node = 0; node < n; ++node) {
    if (!system.is_alive(node)) continue;
    Profile& mine = replay[node];
    const auto my_topics = system.subscriptions().of(node).topics();
    std::vector<std::vector<NeighborProposal>> candidates(my_topics.size());
    const auto& my_neighbors = adjacency[node];
    for (const ids::NodeIndex neighbor : my_neighbors) {
      const Profile& theirs = replay[neighbor];
      const auto their_topics = system.subscriptions().of(neighbor).topics();
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < my_topics.size() && b < their_topics.size()) {
        if (my_topics[a] < their_topics[b]) {
          ++a;
        } else if (their_topics[b] < my_topics[a]) {
          ++b;
        } else {
          const GatewayProposal& proposal = theirs.proposal_at(b);
          const bool parent_in_rt =
              proposal.parent == node ||
              std::binary_search(my_neighbors.begin(), my_neighbors.end(),
                                 proposal.parent);
          candidates[a].push_back(
              NeighborProposal{neighbor, proposal, parent_in_rt});
          ++a;
          ++b;
        }
      }
    }
    for (std::size_t i = 0; i < my_topics.size(); ++i) {
      const ElectionInput input{node, system.ring_id(node),
                                ids::topic_ring_id(my_topics[i]),
                                system.config().gateway_depth};
      const GatewayProposal elected = elect_gateway(input, candidates[i]);
      if (elected != mine.proposal_at(i)) ++changed;
      mine.set_proposal_at(i, elected);
    }
  }

  std::size_t compared = 0;
  std::size_t remote = 0;
  for (ids::NodeIndex node = 0; node < n; ++node) {
    const Profile& profile = system.profile(node);
    ASSERT_EQ(profile.size(), replay[node].size());
    for (std::size_t i = 0; i < profile.size(); ++i) {
      ASSERT_EQ(profile.proposal_at(i), replay[node].proposal_at(i))
          << "node " << node << " topic "
          << system.subscriptions().of(node).topics()[i];
      ++compared;
      if (profile.proposal_at(i).gateway != node) ++remote;
    }
  }
  // The cycle must have moved proposals, and most must have come from a
  // neighbor, or the replay proves little.
  EXPECT_GT(changed, 0u);
  EXPECT_GT(remote, compared / 2);
}

// Both replays run at run_jobs 1, where one worker sweeps every topic, and
// at run_jobs 3, where the sweep is sharded by topic range: the node-major
// replay is the reference for both.
constexpr std::size_t kElectionRunJobs[] = {1, 3};

TEST(VitisSystem, ElectionSweepMatchesBufferedReplayOnUniformTable) {
  auto scenario =
      small_scenario(workload::CorrelationPattern::kRandom, 19, 300, 100);
  for (const std::size_t jobs : kElectionRunJobs) {
    SCOPED_TRACE(testing::Message() << "run_jobs " << jobs);
    VitisConfig config;
    config.routing_table_size = 12;
    config.run_jobs = jobs;
    auto system = workload::make_vitis(scenario, config, 19);
    system->run_cycles(8);
    expect_sweep_matches_replay(*system);
  }
}

TEST(VitisSystem, ElectionSweepMatchesBufferedReplayOnTwitterTable) {
  // Heavy-tailed subscriptions: hubs share many topics with most of their
  // neighbors, so each election folds long candidate lists.
  sim::Rng rng(23);
  workload::TwitterModelParams params;
  params.users = 400;
  params.min_out = 6;
  params.max_out = 120;
  const auto table = workload::make_twitter_subscriptions(params, rng);
  for (const std::size_t jobs : kElectionRunJobs) {
    SCOPED_TRACE(testing::Message() << "run_jobs " << jobs);
    VitisConfig config;
    config.run_jobs = jobs;
    VitisSystem system(config, table,
                       std::vector<double>(table.topic_count(), 1.0), 23);
    system.run_cycles(8);
    expect_sweep_matches_replay(system);
  }
}

}  // namespace
}  // namespace vitis::core
