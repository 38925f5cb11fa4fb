// Tests for the extension features: dynamic subscriptions, Cyclon-backed
// systems, proximity-aware friend selection, publication loss under a fault
// plan, and the small-world diagnostics.
#include <gtest/gtest.h>

#include "analysis/smallworld.hpp"
#include "core/vitis_system.hpp"
#include "sim/coordinates.hpp"
#include "sim/fault.hpp"
#include "workload/scenario.hpp"

namespace vitis {
namespace {

workload::SyntheticScenario scenario_for(std::uint64_t seed,
                                         std::size_t nodes = 300,
                                         std::size_t topics = 120) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = nodes;
  params.subscriptions.topics = topics;
  params.subscriptions.subs_per_node = 15;
  params.subscriptions.pattern =
      workload::CorrelationPattern::kLowCorrelation;
  params.events = 60;
  params.seed = seed;
  return workload::make_synthetic_scenario(params);
}

TEST(DynamicSubscriptions, SubscribeStartsDeliveries) {
  const auto scenario = scenario_for(11);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 11);
  system->run_cycles(30);

  // Find a node not subscribed to topic 0 and subscribe it mid-run.
  const ids::TopicIndex topic = 0;
  ids::NodeIndex newcomer = ids::kInvalidNode;
  for (ids::NodeIndex n = 0; n < system->node_count(); ++n) {
    if (!system->subscriptions().subscribes(n, topic)) {
      newcomer = n;
      break;
    }
  }
  ASSERT_NE(newcomer, ids::kInvalidNode);
  EXPECT_TRUE(system->subscribe(newcomer, topic));
  EXPECT_FALSE(system->subscribe(newcomer, topic));  // idempotent
  EXPECT_TRUE(system->subscriptions().subscribes(newcomer, topic));
  // The new topic starts from a self-proposal in its own profile slot.
  const auto fresh = system->proposal(newcomer, topic);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->gateway, newcomer);
  EXPECT_EQ(system->profile(newcomer).size(),
            system->subscriptions().of(newcomer).size());

  // Let gossip absorb the change, then publish from another subscriber.
  system->run_cycles(12);
  const auto subscribers = system->subscriptions().subscribers(topic);
  ids::NodeIndex publisher = ids::kInvalidNode;
  for (const ids::NodeIndex s : subscribers) {
    if (s != newcomer) {
      publisher = s;
      break;
    }
  }
  ASSERT_NE(publisher, ids::kInvalidNode);
  system->metrics().reset();
  const auto report = system->publish(topic, publisher);
  EXPECT_EQ(report.delivered, report.expected);
  // The newcomer is part of the expected set and was reached.
  EXPECT_GT(report.expected, 0u);
}

TEST(DynamicSubscriptions, UnsubscribeStopsExpectations) {
  const auto scenario = scenario_for(13);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 13);
  system->run_cycles(25);

  const ids::TopicIndex topic = 3;
  const auto subscribers = system->subscriptions().subscribers(topic);
  ASSERT_GT(subscribers.size(), 2u);
  const ids::NodeIndex leaver = subscribers[0];
  const ids::NodeIndex publisher = subscribers[1];
  const std::size_t before = subscribers.size();

  EXPECT_TRUE(system->unsubscribe(leaver, topic));
  EXPECT_FALSE(system->unsubscribe(leaver, topic));
  EXPECT_FALSE(system->proposal(leaver, topic).has_value());
  EXPECT_EQ(system->profile(leaver).size(),
            system->subscriptions().of(leaver).size());
  EXPECT_EQ(system->subscriptions().subscribers(topic).size(), before - 1);

  system->run_cycles(10);
  system->metrics().reset();
  const auto report = system->publish(topic, publisher);
  // The leaver is no longer expected; everyone remaining is reached.
  EXPECT_EQ(report.expected, before - 2);  // minus leaver and publisher
  EXPECT_EQ(report.delivered, report.expected);
}

TEST(DynamicSubscriptions, OtherProposalsSurviveTopicChange) {
  const auto scenario = scenario_for(17, 100, 40);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 17);
  system->run_cycles(20);
  const auto topics = system->subscriptions().of(5).topics();
  ASSERT_GE(topics.size(), 2u);
  const ids::TopicIndex kept = topics[0];
  const auto kept_proposal = system->proposal(5, kept);
  // Adding an unrelated topic must not disturb the kept topic's proposal.
  ids::TopicIndex fresh = 0;
  while (system->subscriptions().subscribes(5, fresh)) ++fresh;
  ASSERT_TRUE(system->subscribe(5, fresh));
  EXPECT_EQ(system->proposal(5, kept), kept_proposal);
}

TEST(CyclonBackedSystem, ConvergesLikeNewscast) {
  const auto scenario = scenario_for(19);
  core::VitisConfig config;
  config.sampling = gossip::SamplingPolicy::kCyclon;
  auto system = workload::make_vitis(scenario, config, 19);
  const auto summary =
      workload::run_measurement(*system, 35, scenario.schedule);
  EXPECT_GE(summary.hit_ratio, 0.99);
}

TEST(Proximity, BiasedSelectionShortensFriendLinks) {
  const auto scenario = scenario_for(23, 400, 150);
  sim::Rng coord_rng(23);
  const auto coords =
      sim::random_coordinates(scenario.subscriptions.node_count(), coord_rng);

  core::VitisConfig plain;
  auto baseline = workload::make_vitis(scenario, plain, 23);
  baseline->set_coordinates(coords);

  core::VitisConfig biased;
  biased.proximity_weight = 4.0;
  auto proximal = workload::make_vitis(scenario, biased, 23);
  proximal->set_coordinates(coords);

  const auto sb = workload::run_measurement(*baseline, 35, scenario.schedule);
  const auto sp = workload::run_measurement(*proximal, 35, scenario.schedule);

  // Proximity bias shortens physical links without destroying delivery.
  EXPECT_LT(proximal->mean_friend_latency_ms(),
            baseline->mean_friend_latency_ms() * 0.9);
  EXPECT_GE(sp.hit_ratio, 0.99);
  EXPECT_GE(sb.hit_ratio, 0.99);
}

TEST(Proximity, LatencyModelBasics) {
  const sim::Coordinate a{0.0, 0.0};
  const sim::Coordinate b{1.0, 1.0};
  EXPECT_DOUBLE_EQ(sim::latency_ms(a, a), 0.0);
  EXPECT_NEAR(sim::latency_ms(a, b), sim::kMaxLatencyMs, 1e-9);
  EXPECT_DOUBLE_EQ(sim::latency_ms(a, b), sim::latency_ms(b, a));
}

TEST(Proximity, CoordinateCountValidated) {
  const auto scenario = scenario_for(29, 50, 20);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 29);
  EXPECT_DOUBLE_EQ(system->mean_friend_latency_ms(), 0.0);  // none installed
}

TEST(MessageLoss, FloodingToleratesModerateLoss) {
  const auto scenario = scenario_for(31, 400, 150);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 31);
  // The drop window opens after warm-up: the overlay converges loss-free
  // and only the measured publications lose messages.
  constexpr std::size_t kWarmup = 35;
  sim::FaultConfig lossy;
  lossy.drop = 0.10;
  lossy.drop_start_cycle = kWarmup;
  system->set_fault_plan(lossy);
  const auto summary =
      workload::run_measurement(*system, kWarmup, scenario.schedule);
  // Redundant flooding inside clusters absorbs most of a 10% loss rate.
  EXPECT_GE(summary.hit_ratio, 0.9);
  EXPECT_LT(summary.hit_ratio, 1.0);
  const sim::FaultStats stats = system->fault_plan().stats();
  EXPECT_GT(stats.drops, 0u);
  EXPECT_EQ(stats.drops, stats.drops_by_kind[static_cast<std::size_t>(
                             sim::MessageKind::kPublication)]);
}

TEST(MessageLoss, ConfigValidation) {
  core::VitisConfig config;
  config.proximity_weight = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(SmallWorldAnalysis, VitisOverlayIsNavigable) {
  const auto scenario = scenario_for(37, 400, 150);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 37);
  system->run_cycles(35);
  const auto overlay = system->overlay_snapshot();
  sim::Rng rng(37);
  const auto stats = analysis::small_world_stats(overlay, 30, rng);
  EXPECT_GT(stats.reachable_fraction, 0.999);
  // Short average paths despite bounded degree: well under log2(N)^2.
  EXPECT_LT(stats.average_path_length, 8.0);
  // Friend clustering yields far more triangles than a random graph of the
  // same density would (C_random ≈ degree/N ≈ 0.06).
  EXPECT_GT(stats.clustering_coefficient, 0.08);
}

TEST(SmallWorldAnalysis, HandCraftedGraphs) {
  // A triangle has clustering 1.
  analysis::Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(analysis::clustering_coefficient(triangle), 1.0);

  // A star has clustering 0.
  analysis::Graph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_DOUBLE_EQ(analysis::clustering_coefficient(star), 0.0);

  // Disconnected pairs: reachability reflects it.
  analysis::Graph pairs(4);
  pairs.add_edge(0, 1);
  pairs.add_edge(2, 3);
  sim::Rng rng(1);
  const auto stats = analysis::small_world_stats(pairs, 4, rng);
  EXPECT_LT(stats.reachable_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.average_path_length, 1.0);
}

}  // namespace
}  // namespace vitis
