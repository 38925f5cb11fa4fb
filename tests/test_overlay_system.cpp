// The contract of the shared gossip host (core::OverlaySystem): every
// behaviour below is the host's, so it is checked on all three systems
// that run on it — Vitis, RVR and OPT.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "baselines/opt/opt_system.hpp"
#include "baselines/rvr/rvr_system.hpp"
#include "core/vitis_system.hpp"
#include "ids/hash.hpp"
#include "workload/scenario.hpp"

namespace vitis {
namespace {

workload::SyntheticScenario scenario_for(std::uint64_t seed) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 80;
  params.subscriptions.subs_per_node = 10;
  params.subscriptions.pattern =
      workload::CorrelationPattern::kLowCorrelation;
  params.events = 40;
  params.seed = seed;
  return workload::make_synthetic_scenario(params);
}

// How each system is configured and built; `overlay` reaches the shared
// fields of its config.
template <typename System>
struct Traits;

template <>
struct Traits<core::VitisSystem> {
  using Config = core::VitisConfig;
  static core::OverlayConfig& overlay(Config& config) { return config; }
  static auto make(const workload::SyntheticScenario& scenario,
                   const Config& config, std::uint64_t seed,
                   bool start_online = true) {
    return workload::make_vitis(scenario, config, seed, start_online);
  }
};

template <>
struct Traits<baselines::rvr::RvrSystem> {
  using Config = baselines::rvr::RvrConfig;
  static core::OverlayConfig& overlay(Config& config) { return config.base; }
  static auto make(const workload::SyntheticScenario& scenario,
                   const Config& config, std::uint64_t seed,
                   bool start_online = true) {
    return workload::make_rvr(scenario, config, seed, start_online);
  }
};

template <>
struct Traits<baselines::opt::OptSystem> {
  using Config = baselines::opt::OptConfig;
  static core::OverlayConfig& overlay(Config& config) { return config.base; }
  static auto make(const workload::SyntheticScenario& scenario,
                   const Config& config, std::uint64_t seed,
                   bool start_online = true) {
    return workload::make_opt(scenario, config, seed, start_online);
  }
};

// Benches hold systems as std::unique_ptr<core::OverlaySystem> and delete
// them through the base.
static_assert(std::has_virtual_destructor_v<core::OverlaySystem>);

template <typename System>
class OverlaySystem : public ::testing::Test {};

using Systems = ::testing::Types<core::VitisSystem, baselines::rvr::RvrSystem,
                                 baselines::opt::OptSystem>;
TYPED_TEST_SUITE(OverlaySystem, Systems);

TEST(OverlayConfig, Validation) {
  core::OverlayConfig config;
  EXPECT_NO_THROW(config.validate());
  config.routing_table_size = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = core::OverlayConfig{};
  config.view_size = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = core::OverlayConfig{};
  config.bootstrap_contacts = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = core::OverlayConfig{};
  config.lookup_hop_budget = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Cyclon swaps max(3, view_size / 2) entries, so its view holds at least
  // three.
  config = core::OverlayConfig{};
  config.sampling = gossip::SamplingPolicy::kCyclon;
  config.view_size = 3;
  EXPECT_NO_THROW(config.validate());
  config.view_size = 2;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // Vitis runs the shared checks and needs a third link beyond the ring
  // pair, which the baselines do not.
  core::VitisConfig vitis;
  EXPECT_NO_THROW(vitis.validate());
  vitis.view_size = 0;
  EXPECT_THROW(vitis.validate(), std::invalid_argument);
  vitis = core::VitisConfig{};
  vitis.routing_table_size = 2;
  vitis.structural_links = 2;
  EXPECT_NO_THROW(static_cast<const core::OverlayConfig&>(vitis).validate());
  EXPECT_THROW(vitis.validate(), std::invalid_argument);
}

TYPED_TEST(OverlaySystem, JoinGraceExcludesFreshNodes) {
  const auto scenario = scenario_for(3);
  typename Traits<TypeParam>::Config config;
  Traits<TypeParam>::overlay(config).join_grace_cycles = 5;
  auto system =
      Traits<TypeParam>::make(scenario, config, 3, /*start_online=*/false);
  for (ids::NodeIndex n = 0; n < 200; ++n) system->node_join(n);
  system->run_cycles(2);  // less than the grace period

  // Every subscriber is inside the grace window: zero expected deliveries.
  const ids::TopicIndex topic = 1;
  const auto subscribers = system->subscriptions().subscribers(topic);
  ASSERT_FALSE(subscribers.empty());
  const auto report = system->publish(topic, subscribers[0]);
  EXPECT_EQ(report.expected, 0u);
  EXPECT_DOUBLE_EQ(report.hit_ratio(), 1.0);

  // After the grace period they are accountable.
  system->run_cycles(6);
  const auto later = system->publish(topic, subscribers[0]);
  EXPECT_GT(later.expected, 0u);
}

// Every received message is interested traffic exactly when its receiver
// subscribes to the topic, whether or not the receiver is expected: the
// publisher, a subscriber inside its join grace and a crashed subscriber
// still in this cycle's adjacency all count as interested.
TYPED_TEST(OverlaySystem, InterestFollowsSubscriptionNotExpectation) {
  const auto scenario = scenario_for(17);
  typename Traits<TypeParam>::Config config;
  Traits<TypeParam>::overlay(config).join_grace_cycles = 3;
  auto system = Traits<TypeParam>::make(scenario, config, 17);
  system->run_cycles(20);

  const ids::TopicIndex topic = 3;
  const auto subscribers = system->subscriptions().subscribers(topic);
  ASSERT_GT(subscribers.size(), 3u);
  const ids::NodeIndex publisher = subscribers[0];
  const ids::NodeIndex grace = subscribers[1];
  const ids::NodeIndex crashed = subscribers[2];
  system->node_leave(grace);
  system->node_join(grace);
  system->run_cycles(1);  // grace joins the adjacency, still in its grace
  system->node_crash(crashed);

  system->metrics().reset();
  const auto report = system->publish(topic, publisher);
  EXPECT_GT(report.delivered, 0u);
  const auto& traffic = system->metrics().traffic();
  for (ids::NodeIndex n = 0; n < traffic.size(); ++n) {
    const bool subscribes = system->subscriptions().subscribes(n, topic);
    if (traffic[n].interested > 0) {
      EXPECT_TRUE(subscribes) << "node " << n;
    }
    if (traffic[n].uninterested > 0) {
      EXPECT_FALSE(subscribes) << "node " << n;
    }
  }
  EXPECT_GT(traffic[publisher].total() + traffic[grace].total(), 0u)
      << "neither the publisher nor the grace node received";
}

TYPED_TEST(OverlaySystem, OverlaySnapshotExcludesDeadNodes) {
  const auto scenario = scenario_for(5);
  auto system = Traits<TypeParam>::make(scenario, {}, 5);
  system->run_cycles(20);
  system->node_leave(7);
  const auto overlay = system->overlay_snapshot();
  EXPECT_EQ(overlay.degree(7), 0u);
}

TYPED_TEST(OverlaySystem, LookupSkipsDeadNeighbors) {
  const auto scenario = scenario_for(7);
  auto system = Traits<TypeParam>::make(scenario, {}, 7);
  system->run_cycles(25);
  // Kill a band of nodes; lookups must still converge via alive routes.
  for (ids::NodeIndex n = 50; n < 80; ++n) system->node_leave(n);
  for (int probe = 0; probe < 20; ++probe) {
    const auto origin = static_cast<ids::NodeIndex>(probe);
    const auto result =
        system->lookup(origin, ids::topic_ring_id(
                                   static_cast<ids::TopicIndex>(probe)));
    EXPECT_TRUE(result.converged);
    for (const ids::NodeIndex hop : result.path) {
      EXPECT_TRUE(system->is_alive(hop)) << "routed through dead node";
    }
  }
}

TYPED_TEST(OverlaySystem, RejoinResetsJoinCycleAccounting) {
  const auto scenario = scenario_for(9);
  typename Traits<TypeParam>::Config config;
  Traits<TypeParam>::overlay(config).join_grace_cycles = 3;
  auto system = Traits<TypeParam>::make(scenario, config, 9);
  system->run_cycles(15);

  const ids::TopicIndex topic = 2;
  const auto subscribers = system->subscriptions().subscribers(topic);
  ASSERT_GT(subscribers.size(), 2u);
  const ids::NodeIndex bouncer = subscribers[0];
  const std::size_t expected_before =
      system->publish(topic, subscribers[1]).expected;

  system->node_leave(bouncer);
  system->node_join(bouncer);  // freshly rejoined: inside grace again
  const std::size_t expected_after =
      system->publish(topic, subscribers[1]).expected;
  EXPECT_EQ(expected_after, expected_before - 1);
}

TYPED_TEST(OverlaySystem, RingIdsMatchHashFunction) {
  const auto scenario = scenario_for(11);
  auto system = Traits<TypeParam>::make(scenario, {}, 11);
  for (ids::NodeIndex n = 0; n < 20; ++n) {
    EXPECT_EQ(system->ring_id(n), ids::node_ring_id(n));
  }
}

TYPED_TEST(OverlaySystem, AliveCountTracksChurn) {
  const auto scenario = scenario_for(13);
  auto system = Traits<TypeParam>::make(scenario, {}, 13);
  EXPECT_EQ(system->alive_count(), 200u);
  system->node_leave(0);
  system->node_leave(1);
  system->node_leave(0);  // idempotent
  EXPECT_EQ(system->alive_count(), 198u);
  system->node_join(0);
  EXPECT_EQ(system->alive_count(), 199u);
}

TYPED_TEST(OverlaySystem, RoutingTablesAreIndependentSlabSlices) {
  // Every table is a fixed slice of one shared slab: however full the
  // tables grow, each stays inside its own slice.
  const auto scenario = scenario_for(15);
  typename Traits<TypeParam>::Config config;
  const std::size_t capacity =
      Traits<TypeParam>::overlay(config).routing_table_size;
  auto system = Traits<TypeParam>::make(scenario, config, 15);
  system->run_cycles(10);
  const overlay::RoutingEntry* slab = system->routing_table(0).entries().data();
  std::size_t filled = 0;
  for (ids::NodeIndex n = 0; n < 200; ++n) {
    const overlay::RoutingTable& table = system->routing_table(n);
    EXPECT_EQ(table.capacity(), capacity);
    EXPECT_LE(table.size(), capacity);
    EXPECT_EQ(table.entries().data(), slab + n * capacity);
    if (table.size() == capacity) ++filled;
  }
  EXPECT_GT(filled, 0u);
}

TYPED_TEST(OverlaySystem, FootprintIsDeterministicAcrossIdenticalRuns) {
  // The capacity bench prints memory_footprint() on stdout; two identical
  // (seed, scale) runs must agree byte for byte.
  const auto scenario = scenario_for(17);
  const auto footprint = [&] {
    auto system = Traits<TypeParam>::make(scenario, {}, 17);
    system->run_cycles(10);
    return system->memory_footprint();
  };
  const std::size_t first = footprint();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, footprint());
}

// Vitis' relay paths and RVR's multicast trees are the host's relay
// tables; OPT keeps none.
template <typename System>
std::size_t relay_links(const System& system, ids::NodeIndex node) {
  if constexpr (requires { system.relay_table(node); }) {
    return system.relay_table(node).link_count();
  }
  return 0;
}

template <typename System>
std::size_t relay_bytes(const System& system, ids::NodeIndex node) {
  if constexpr (requires { system.relay_table(node); }) {
    return system.relay_table(node).memory_bytes();
  }
  return 0;
}

TYPED_TEST(OverlaySystem, ChurnClearsRelayTablesAndTheirFootprint) {
  const auto scenario = scenario_for(19);
  auto system = Traits<TypeParam>::make(scenario, {}, 19);
  system->run_cycles(20);
  // The two nodes holding the most relay links (any two for OPT).
  std::vector<ids::NodeIndex> nodes(system->node_count());
  std::iota(nodes.begin(), nodes.end(), ids::NodeIndex{0});
  std::stable_sort(nodes.begin(), nodes.end(),
                   [&](ids::NodeIndex a, ids::NodeIndex b) {
                     return relay_links(*system, a) > relay_links(*system, b);
                   });
  const ids::NodeIndex leaver = nodes[0];
  const ids::NodeIndex crasher = nodes[1];
  const bool has_relays = relay_links(*system, crasher) > 0;
  constexpr bool kOpt = std::is_same_v<TypeParam, baselines::opt::OptSystem>;
  EXPECT_EQ(has_relays, !kOpt);

  // Every other footprint term is fixed per node or waits for the next
  // cycle, so a leave returns exactly the relay table's live bytes.
  const std::size_t bytes = relay_bytes(*system, leaver);
  const std::size_t before = system->memory_footprint();
  system->node_leave(leaver);
  EXPECT_EQ(relay_links(*system, leaver), 0u);
  EXPECT_EQ(before - system->memory_footprint(), bytes);

  // A crash keeps the state (peers must detect the silence); the rejoin
  // starts from an empty table.
  const std::size_t held = relay_links(*system, crasher);
  system->node_crash(crasher);
  EXPECT_EQ(relay_links(*system, crasher), held);
  system->node_join(crasher);
  EXPECT_EQ(relay_links(*system, crasher), 0u);
}

}  // namespace
}  // namespace vitis
