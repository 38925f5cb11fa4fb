// Determinism contract of the fault layer (sim::FaultPlan):
//
//   * identical (seed, plan) -> bit-identical runs, for Vitis and RVR;
//   * a plan whose knobs are all zero deactivates the layer entirely;
//   * an *active* plan whose windows never fire (stream isolation) leaves
//     the run byte-identical to one without any fault layer, because
//     partition membership is a pure hash and the Bernoulli streams are
//     only consulted when their probability is positive.
#include <gtest/gtest.h>

#include "ids/hash.hpp"
#include "workload/scenario.hpp"

namespace vitis {
namespace {

workload::SyntheticScenario small_scenario(std::uint64_t seed) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 160;
  params.subscriptions.topics = 80;
  params.subscriptions.subs_per_node = 12;
  params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
  params.events = 40;
  params.seed = seed;
  return workload::make_synthetic_scenario(params);
}

sim::FaultConfig lossy_plan() {
  sim::FaultConfig config;
  config.drop = 0.15;
  config.delay = 0.1;
  config.delay_hops = 2;
  config.partitions.push_back(sim::PartitionWindow{10, 18, 0xabcdefULL});
  config.crashes.push_back(sim::CrashEvent{12, 7});
  config.crashes.push_back(sim::CrashEvent{14, 31});
  return config;
}

/// Fold one value into a running mix64 chain.
void mix(std::uint64_t& h, std::uint64_t v) {
  h = ids::mix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

/// Full protocol-visible state: alive bits, routing tables, relay sizes,
/// delivery accounting. Any RNG divergence between two runs cascades into
/// the tables within a cycle or two, so this is a faithful run fingerprint.
template <typename System>
std::uint64_t digest(const System& system) {
  std::uint64_t h = 0x765f6661756c74ULL;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    mix(h, system.is_alive(node) ? 1 : 0);
    for (const auto& entry : system.routing_table(node).entries()) {
      mix(h, entry.node);
      mix(h, static_cast<std::uint64_t>(entry.kind));
      mix(h, entry.age);
    }
  }
  mix(h, system.metrics().total_messages());
  mix(h, system.metrics().expected_total());
  mix(h, system.metrics().delivered_total());
  return h;
}

/// Publish the schedule, skipping events whose publisher a crash took
/// offline (publish checks the publisher is alive).
template <typename System>
void publish_alive(System& system,
                   const std::vector<pubsub::Publication>& schedule) {
  for (const auto& [topic, publisher] : schedule) {
    if (!system.is_alive(publisher)) continue;
    (void)system.publish(topic, publisher);
  }
}

template <typename System, typename Make>
void expect_same_plan_same_run(Make make) {
  const auto scenario = small_scenario(901);
  const auto run = [&](const sim::FaultConfig& plan) {
    auto system = make(scenario);
    system->set_fault_plan(plan);
    system->run_cycles(30);
    publish_alive(*system, scenario.schedule);
    return std::pair{digest(*system), system->fault_plan().stats()};
  };
  const auto [h1, s1] = run(lossy_plan());
  const auto [h2, s2] = run(lossy_plan());
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(s1.attempts, s2.attempts);
  EXPECT_EQ(s1.drops, s2.drops);
  EXPECT_EQ(s1.partition_drops, s2.partition_drops);
  EXPECT_EQ(s1.delays, s2.delays);
  EXPECT_EQ(s1.crashes, s2.crashes);
  EXPECT_GT(s1.attempts, 0u);
  EXPECT_GT(s1.drops, 0u);
  EXPECT_EQ(s1.crashes, 2u);
}

TEST(FaultDeterminism, SamePlanSameRunVitis) {
  expect_same_plan_same_run<core::VitisSystem>([](const auto& scenario) {
    return workload::make_vitis(scenario, core::VitisConfig{}, 901);
  });
}

TEST(FaultDeterminism, SamePlanSameRunRvr) {
  expect_same_plan_same_run<baselines::rvr::RvrSystem>(
      [](const auto& scenario) {
        return workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 901);
      });
}

TEST(FaultDeterminism, ZeroPlanIsInert) {
  // All-zero knobs: the plan never activates; the run must be bit-identical
  // to never calling set_fault_plan at all.
  const auto scenario = small_scenario(907);
  auto plain = workload::make_vitis(scenario, core::VitisConfig{}, 907);
  auto zeroed = workload::make_vitis(scenario, core::VitisConfig{}, 907);
  zeroed->set_fault_plan(sim::FaultConfig{});
  EXPECT_FALSE(zeroed->fault_plan().active());
  plain->run_cycles(30);
  zeroed->run_cycles(30);
  publish_alive(*plain, scenario.schedule);
  publish_alive(*zeroed, scenario.schedule);
  EXPECT_EQ(digest(*plain), digest(*zeroed));
  EXPECT_EQ(zeroed->fault_plan().stats().attempts, 0u);
}

TEST(FaultDeterminism, DormantActivePlanNeverPerturbs) {
  // A plan that is *active* (it has a partition window) but whose window
  // lies far in the future and whose drop/delay are zero makes admission
  // checks on every path — yet draws nothing from any stream. The run must
  // stay byte-identical to a fault-free one: this is the stream-isolation
  // guarantee, not just the inactivity shortcut.
  const auto scenario = small_scenario(911);
  sim::FaultConfig dormant;
  dormant.partitions.push_back(
      sim::PartitionWindow{1'000'000, 1'000'001, 0x51ULL});
  auto plain = workload::make_vitis(scenario, core::VitisConfig{}, 911);
  auto armed = workload::make_vitis(scenario, core::VitisConfig{}, 911);
  armed->set_fault_plan(dormant);
  EXPECT_TRUE(armed->fault_plan().active());
  plain->run_cycles(30);
  armed->run_cycles(30);
  publish_alive(*plain, scenario.schedule);
  publish_alive(*armed, scenario.schedule);
  EXPECT_EQ(digest(*plain), digest(*armed));
  const auto& stats = armed->fault_plan().stats();
  EXPECT_GT(stats.attempts, 0u);  // the layer really was consulted
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.partition_drops, 0u);
  EXPECT_EQ(stats.delays, 0u);
}

TEST(FaultDeterminism, ExplicitFaultSeedDecouplesFromSystemSeed) {
  // config.seed overrides the derived stream: two systems with different
  // system seeds but the same fault seed draw the same fault stream, which
  // shows the stream really is dedicated (the converse — same system seed,
  // different fault seeds — must diverge in drop counts).
  const auto scenario = small_scenario(919);
  sim::FaultConfig plan;
  plan.drop = 0.25;
  plan.seed = 77;
  const auto drops_with = [&](std::uint64_t fault_seed) {
    auto system = workload::make_vitis(scenario, core::VitisConfig{}, 919);
    sim::FaultConfig p = plan;
    p.seed = fault_seed;
    system->set_fault_plan(p);
    system->run_cycles(20);
    return system->fault_plan().stats().drops;
  };
  EXPECT_EQ(drops_with(77), drops_with(77));
  EXPECT_NE(drops_with(77), drops_with(78));
}

}  // namespace
}  // namespace vitis
