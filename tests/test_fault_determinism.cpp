// Determinism contract of the fault layer (sim::FaultPlan):
//
//   * identical (seed, plan) -> bit-identical runs, for Vitis and RVR;
//   * a plan whose knobs are all zero deactivates the layer entirely;
//   * an *active* plan whose windows never fire (stream isolation) leaves
//     the run byte-identical to one without any fault layer, because
//     partition membership is a pure hash and the Bernoulli streams are
//     only consulted when their probability is positive.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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

/// Sparse topics (about 15 subscribers each), so a topic's subscribers
/// form several clusters and the relay refresh walks several gateways'
/// routes per topic.
workload::SyntheticScenario many_gateway_scenario(std::uint64_t seed) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 400;
  params.subscriptions.topics = 800;
  params.subscriptions.subs_per_node = 30;
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

/// Relay state (Vitis' relay paths, RVR's multicast trees): every relay
/// table (topic, peer, age, in link order) and the relay_path_length
/// buckets.
template <typename System>
std::uint64_t relay_digest(const System& system) {
  std::uint64_t h = 0x72656c6179ULL;
  const std::size_t topics = system.subscriptions().topic_count();
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto& relay = system.relay_table(static_cast<ids::NodeIndex>(i));
    for (std::size_t t = 0; t < topics; ++t) {
      for (const auto& link : relay.links(static_cast<ids::TopicIndex>(t))) {
        mix(h, i);
        mix(h, t);
        mix(h, link.peer);
        mix(h, link.age);
      }
    }
  }
  const support::Histogram lengths =
      system.distributions()->merged(support::Channel::kRelayPathLength);
  EXPECT_GT(lengths.count(), 0u);
  for (std::size_t b = 0; b < support::Histogram::kBucketCount; ++b) {
    mix(h, lengths.bucket_count(b));
  }
  return h;
}

using Walks = std::vector<std::pair<ids::NodeIndex, ids::TopicIndex>>;

/// The walks Vitis' serial relay refresh made in the cycle that just ran,
/// in its order: each topic's elected gateways ascending, topics ascending.
Walks serial_walks(const core::VitisSystem& system) {
  Walks walks;
  for (std::size_t t = 0; t < system.subscriptions().topic_count(); ++t) {
    const auto topic = static_cast<ids::TopicIndex>(t);
    std::vector<ids::NodeIndex> gateways = system.gateways_of(topic);
    std::sort(gateways.begin(), gateways.end());
    for (const ids::NodeIndex gateway : gateways) {
      walks.emplace_back(gateway, topic);
    }
  }
  return walks;
}

std::uint32_t relay_ttl(const core::VitisSystem& system) {
  return system.config().relay_ttl;
}

/// The walks RVR's serial tree refresh made in the cycle that just ran, in
/// its order: alive subscribers ascending, each with every topic whose
/// staggered resubscription fell on that cycle.
Walks serial_walks(const baselines::rvr::RvrSystem& system) {
  Walks walks;
  const std::size_t cycle = system.cycle() - 1;
  const std::size_t interval = system.config().tree_refresh_interval;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    if (!system.is_alive(node)) continue;
    for (const ids::TopicIndex topic :
         system.subscriptions().of(node).topics()) {
      const std::uint64_t stagger =
          ids::mix64((static_cast<std::uint64_t>(node) << 32) | topic);
      if ((cycle + stagger) % interval == 0) walks.emplace_back(node, topic);
    }
  }
  return walks;
}

std::uint32_t relay_ttl(const baselines::rvr::RvrSystem& system) {
  return system.config().tree_ttl();
}

/// Runs one more cycle and checks its relay refresh against the serial
/// algorithm it replaced: age every alive node's relay table, then walk
/// serial_walks() in order, in full, over the same frozen routing state,
/// and link both ends of every hop of every converged route one add_link
/// at a time. The tables must come out identical, link order and ages
/// included. Returns the number of routes replayed.
template <typename System>
std::size_t expect_serial_relay_refresh(System& system) {
  const std::size_t nodes = system.node_count();
  const std::size_t topics = system.subscriptions().topic_count();
  std::vector<core::RelayTable> expected;
  for (std::size_t i = 0; i < nodes; ++i) {
    expected.push_back(system.relay_table(static_cast<ids::NodeIndex>(i)));
  }
  system.run_cycles(1);
  for (std::size_t i = 0; i < nodes; ++i) {
    if (system.is_alive(static_cast<ids::NodeIndex>(i))) {
      expected[i].age_and_expire(relay_ttl(system));
    }
  }
  const Walks walks = serial_walks(system);
  for (const auto& [requester, topic] : walks) {
    const auto route = system.lookup(requester, ids::topic_ring_id(topic));
    if (!route.converged) continue;
    for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
      expected[route.path[i]].add_link(topic, route.path[i + 1]);
      expected[route.path[i + 1]].add_link(topic, route.path[i]);
    }
  }
  const auto links_of = [](const core::RelayTable& table,
                           ids::TopicIndex topic) {
    std::vector<std::pair<ids::NodeIndex, std::uint32_t>> links;
    for (const auto& link : table.links(topic)) {
      links.emplace_back(link.peer, link.age);
    }
    return links;
  };
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto& actual = system.relay_table(static_cast<ids::NodeIndex>(i));
    for (std::size_t t = 0; t < topics; ++t) {
      const auto topic = static_cast<ids::TopicIndex>(t);
      EXPECT_EQ(links_of(expected[i], topic), links_of(actual, topic))
          << "node " << i << " topic " << t;
    }
  }
  return walks.size();
}

TEST(FaultDeterminism, DormantActivePlanNeverPerturbs) {
  // A plan that is *active* (it has a partition window) but whose window
  // lies far in the future and whose drop/delay are zero makes admission
  // checks on every path — yet draws nothing from any stream. The run must
  // stay byte-identical to a fault-free one: this is the stream-isolation
  // guarantee, not just the inactivity shortcut. An active plan also makes
  // the relay refresh walk every route in full, while the plain run ends
  // each walk where it meets an earlier route of the same topic: relay
  // tables and path lengths must match too, at any run_jobs, and the last
  // cycle must equal a serial full-walk replay in ascending gateway order.
  const auto scenario = many_gateway_scenario(911);
  const std::size_t topics = scenario.subscriptions.topic_count();
  sim::FaultConfig dormant;
  dormant.partitions.push_back(
      sim::PartitionWindow{1'000'000, 1'000'001, 0x51ULL});
  for (const std::size_t run_jobs : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("run_jobs " + std::to_string(run_jobs));
    core::VitisConfig config;
    config.run_jobs = run_jobs;
    auto plain = workload::make_vitis(scenario, config, 911);
    auto armed = workload::make_vitis(scenario, config, 911);
    armed->set_fault_plan(dormant);
    EXPECT_TRUE(armed->fault_plan().active());
    plain->run_cycles(29);
    armed->run_cycles(29);
    // Several gateways per topic, so many walks end on an earlier route.
    EXPECT_GE(expect_serial_relay_refresh(*plain), 3 * topics);
    EXPECT_GE(expect_serial_relay_refresh(*armed), 3 * topics);
    EXPECT_EQ(relay_digest(*plain), relay_digest(*armed));
    publish_alive(*plain, scenario.schedule);
    publish_alive(*armed, scenario.schedule);
    EXPECT_EQ(digest(*plain), digest(*armed));
    const auto& stats = armed->fault_plan().stats();
    EXPECT_GT(stats.attempts, 0u);  // the layer really was consulted
    EXPECT_EQ(stats.drops, 0u);
    EXPECT_EQ(stats.partition_drops, 0u);
    EXPECT_EQ(stats.delays, 0u);
  }
}

TEST(FaultDeterminism, RvrTreesMatchTheSerialTreeRefresh) {
  // RVR's multicast trees run on the host's relay refresh: grouped walks
  // that end where they meet an earlier route of the topic, and one
  // rebuild per table. Every cycle must equal the serial tree refresh it
  // replaced (age every tree, then each alive subscriber's staggered
  // resubscriptions, ascending, each hop linked both ways), with and
  // without a dormant plan, at any run_jobs.
  const auto scenario = many_gateway_scenario(913);
  const std::size_t topics = scenario.subscriptions.topic_count();
  sim::FaultConfig dormant;
  dormant.partitions.push_back(
      sim::PartitionWindow{1'000'000, 1'000'001, 0x51ULL});
  for (const std::size_t run_jobs : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("run_jobs " + std::to_string(run_jobs));
    baselines::rvr::RvrConfig config;
    config.base.run_jobs = run_jobs;
    auto plain = workload::make_rvr(scenario, config, 913);
    auto armed = workload::make_rvr(scenario, config, 913);
    armed->set_fault_plan(dormant);
    plain->run_cycles(29);
    armed->run_cycles(29);
    // Several resubscriptions per topic, so many walks end on an earlier
    // route; two cycles cover different stagger classes.
    for (int cycle = 0; cycle < 2; ++cycle) {
      EXPECT_GE(expect_serial_relay_refresh(*plain), 3 * topics);
      EXPECT_GE(expect_serial_relay_refresh(*armed), 3 * topics);
    }
    EXPECT_EQ(relay_digest(*plain), relay_digest(*armed));
    publish_alive(*plain, scenario.schedule);
    publish_alive(*armed, scenario.schedule);
    EXPECT_EQ(digest(*plain), digest(*armed));
    EXPECT_GT(armed->fault_plan().stats().attempts, 0u);
    EXPECT_EQ(armed->fault_plan().stats().partition_drops, 0u);
  }
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
