// Randomized fault-scenario fuzzer: 50 seed-enumerated (scenario, fault
// plan, workload) combinations, each asserting the analysis/health
// invariants through a fault phase and after healing. Every assertion is
// wrapped in a SCOPED_TRACE carrying a one-line repro — paste the printed
// `seed=...` line into a unit test to replay a failing scenario exactly.
// A third test storms subscriptions beside leave/join churn and diffs the
// memoized Vitis against a twin that scores every pair afresh.
//
// The corpus shifts with the FAULT_FUZZ_SEED_OFFSET environment variable
// (CI runs extra offsets under the sanitizers); the default offset 0 keeps
// the checked-in run deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/health.hpp"
#include "workload/scenario.hpp"

namespace vitis {
namespace {

constexpr std::uint64_t kBaseSeed = 5000;
constexpr std::size_t kScenarios = 50;
constexpr std::size_t kWarmupCycles = 20;
constexpr std::size_t kFaultCycles = 24;
constexpr std::size_t kRecoveryCycles = 18;

std::uint64_t seed_offset() {
  const char* env = std::getenv("FAULT_FUZZ_SEED_OFFSET");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

struct FuzzCase {
  std::uint64_t seed;
  workload::SyntheticScenario scenario;
  sim::FaultConfig fault;
  std::string repro;  // one-line reproduction recipe
};

FuzzCase draw_case(std::uint64_t seed) {
  sim::Rng rng(seed);

  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 96 + rng.index(65);   // 96..160
  params.subscriptions.topics = 32 + rng.index(33);  // 32..64
  params.subscriptions.subs_per_node = 8;
  params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
  params.events = 50;
  params.seed = seed;
  auto scenario = workload::make_synthetic_scenario(params);

  workload::FaultScenarioParams fp;
  fp.nodes = params.subscriptions.nodes;
  fp.fault_start = kWarmupCycles;
  fp.fault_end = kWarmupCycles + kFaultCycles;
  auto fault = workload::make_fault_config(fp, rng);

  char line[160];
  std::snprintf(line, sizeof line,
                "seed=%llu nodes=%zu topics=%zu drop=%.4f delay=%.4f "
                "partitions=%zu crashes=%zu",
                static_cast<unsigned long long>(seed),
                params.subscriptions.nodes, params.subscriptions.topics,
                fault.drop, fault.delay, fault.partitions.size(),
                fault.crashes.size());
  return FuzzCase{seed, std::move(scenario), std::move(fault),
                  std::string(line)};
}

/// Publish the schedule, skipping events whose publisher is offline.
template <typename System>
void publish_alive(System& system,
                   const std::vector<pubsub::Publication>& schedule) {
  for (const auto& [topic, publisher] : schedule) {
    if (!system.is_alive(publisher)) continue;
    (void)system.publish(topic, publisher);
  }
}

void check_vitis_invariants(const core::VitisSystem& system,
                            analysis::HealthAnalyzer& health) {
  const std::size_t n = system.node_count();
  const std::size_t topics = system.subscriptions().topic_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    if (!system.is_alive(node)) continue;
    EXPECT_TRUE(analysis::table_within_bounds(node,
                                              system.routing_table(node)));
    EXPECT_TRUE(analysis::successor_is_clockwise_closest(
        system.ring_id(node), system.routing_table(node).entries()));
    const auto& profile = system.profile(node);
    for (std::size_t t = 0; t < profile.size(); ++t) {
      EXPECT_TRUE(analysis::gateway_depth_bounded(
          profile.proposal_at(t).hops, system.config().gateway_depth));
    }
    // Relay-table bounds: every link names a valid, non-self peer and the
    // table never holds more links than (topics x table capacity) allows.
    const core::RelayTable& relays = system.relay_table(node);
    EXPECT_LE(relays.topic_count(), topics);
    for (std::size_t t = 0; t < topics; ++t) {
      for (const auto& link : relays.links(static_cast<ids::TopicIndex>(t))) {
        EXPECT_LT(link.peer, n);
        EXPECT_NE(link.peer, node);
      }
    }
  }

  const auto is_alive = [&](ids::NodeIndex node) {
    return system.is_alive(node);
  };
  const double consistency = health.ring_consistency(
      is_alive, [&](ids::NodeIndex node) -> const overlay::RoutingTable& {
        return system.routing_table(node);
      });
  EXPECT_GE(consistency, 0.9);

  const auto graph = system.overlay_snapshot();
  std::vector<std::vector<ids::NodeIndex>> adjacency(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto span = graph.neighbors(static_cast<ids::NodeIndex>(i));
    adjacency[i].assign(span.begin(), span.end());
  }
  const double clusters = health.mean_clusters_per_topic(
      adjacency, system.subscriptions(), is_alive);
  EXPECT_LE(clusters, 2.5);
}

TEST(FaultFuzz, FiftyScenariosHoldInvariants) {
  const std::uint64_t offset = seed_offset();
  for (std::size_t i = 0; i < kScenarios; ++i) {
    FuzzCase fz = draw_case(kBaseSeed + offset + i);
    SCOPED_TRACE(fz.repro);

    core::VitisConfig config;
    config.relay_retransmit = 2;
    config.route_fallback_limit = 2;
    config.gateway_silence_limit = 3;
    auto system = workload::make_vitis(fz.scenario, config, fz.seed);

    std::vector<ids::RingId> ring_ids(system->node_count());
    for (std::size_t node = 0; node < ring_ids.size(); ++node) {
      ring_ids[node] = system->ring_id(static_cast<ids::NodeIndex>(node));
    }
    analysis::HealthAnalyzer health;
    health.attach(ring_ids);

    // Fault-free warmup, then the lossy phase with recovery knobs armed.
    system->run_cycles(kWarmupCycles);
    system->set_fault_plan(fz.fault);
    system->run_cycles(kFaultCycles);

    // Publishing under fire must never produce phantom deliveries.
    publish_alive(*system, fz.scenario.schedule);
    EXPECT_LE(system->metrics().delivered_total(),
              system->metrics().expected_total());

    // Heal: lift the plan, bring the crashed nodes back, let repair run.
    system->set_fault_plan(sim::FaultConfig{});
    EXPECT_FALSE(system->fault_plan().active());
    for (const sim::CrashEvent& crash : fz.fault.crashes) {
      if (!system->is_alive(crash.node)) system->node_join(crash.node);
    }
    system->run_cycles(kRecoveryCycles);

    check_vitis_invariants(*system, health);

    // Delivery-ratio floor once faults heal.
    system->metrics().reset();
    publish_alive(*system, fz.scenario.schedule);
    const auto summary = pubsub::MetricsSummary::from(system->metrics());
    EXPECT_GT(summary.hit_ratio, 0.8);
    EXPECT_LE(system->metrics().delivered_total(),
              system->metrics().expected_total());
  }
}

TEST(FaultFuzz, BaselinesSurviveTheSamePlans) {
  // Lighter pass over the baseline fault paths (route admission, tree-graft
  // truncation, flood admission): no invariant machinery, but runs must not
  // trip VITIS_CHECK and accounting must never go phantom.
  const std::uint64_t offset = seed_offset();
  for (std::size_t i = 0; i < kScenarios; i += 10) {
    FuzzCase fz = draw_case(kBaseSeed + offset + i);
    SCOPED_TRACE(fz.repro);

    auto rvr = workload::make_rvr(fz.scenario, baselines::rvr::RvrConfig{},
                                  fz.seed);
    auto opt = workload::make_opt(fz.scenario, baselines::opt::OptConfig{},
                                  fz.seed);
    const auto exercise = [&](auto& system) {
      system.run_cycles(kWarmupCycles);
      system.set_fault_plan(fz.fault);
      system.run_cycles(kFaultCycles);
      publish_alive(system, fz.scenario.schedule);
      EXPECT_LE(system.metrics().delivered_total(),
                system.metrics().expected_total());
      system.set_fault_plan(sim::FaultConfig{});
      for (const sim::CrashEvent& crash : fz.fault.crashes) {
        if (!system.is_alive(crash.node)) system.node_join(crash.node);
      }
      system.run_cycles(kRecoveryCycles);
      publish_alive(system, fz.scenario.schedule);
      EXPECT_LE(system.metrics().delivered_total(),
                system.metrics().expected_total());
    };
    exercise(*rvr);
    exercise(*opt);
  }
}

// Every node's SetId names its live subscription set, and its profile
// holds one proposal per subscribed topic.
void expect_subscription_state_consistent(const core::VitisSystem& system) {
  for (ids::NodeIndex n = 0; n < system.node_count(); ++n) {
    ASSERT_TRUE(system.registry().set(system.set_id(n)) ==
                system.subscriptions().of(n))
        << "node " << n;
    ASSERT_EQ(system.profile(n).size(), system.subscriptions().of(n).size())
        << "node " << n;
  }
}

// Routing tables, proposals and relay tables are equal node for node.
void expect_same_overlay(const core::VitisSystem& a,
                         const core::VitisSystem& b) {
  const std::size_t topics = a.subscriptions().topic_count();
  for (ids::NodeIndex n = 0; n < a.node_count(); ++n) {
    ASSERT_EQ(a.is_alive(n), b.is_alive(n)) << "node " << n;
    const auto rt_a = a.routing_table(n).entries();
    const auto rt_b = b.routing_table(n).entries();
    ASSERT_EQ(rt_a.size(), rt_b.size()) << "node " << n;
    for (std::size_t i = 0; i < rt_a.size(); ++i) {
      ASSERT_EQ(rt_a[i].node, rt_b[i].node) << "node " << n << " entry " << i;
      ASSERT_EQ(rt_a[i].kind, rt_b[i].kind) << "node " << n << " entry " << i;
      ASSERT_EQ(rt_a[i].age, rt_b[i].age) << "node " << n << " entry " << i;
    }
    const core::Profile& profile_a = a.profile(n);
    const core::Profile& profile_b = b.profile(n);
    ASSERT_EQ(profile_a.size(), profile_b.size()) << "node " << n;
    for (std::size_t i = 0; i < profile_a.size(); ++i) {
      ASSERT_EQ(profile_a.proposal_at(i), profile_b.proposal_at(i))
          << "node " << n << " topic position " << i;
    }
    const core::RelayTable& relay_a = a.relay_table(n);
    const core::RelayTable& relay_b = b.relay_table(n);
    ASSERT_EQ(relay_a.link_count(), relay_b.link_count()) << "node " << n;
    for (std::size_t t = 0; t < topics; ++t) {
      const auto links_a = relay_a.links(static_cast<ids::TopicIndex>(t));
      const auto links_b = relay_b.links(static_cast<ids::TopicIndex>(t));
      ASSERT_EQ(links_a.size(), links_b.size())
          << "node " << n << " topic " << t;
      for (std::size_t i = 0; i < links_a.size(); ++i) {
        ASSERT_EQ(links_a[i].peer, links_b[i].peer)
            << "node " << n << " topic " << t;
        ASSERT_EQ(links_a[i].age, links_b[i].age)
            << "node " << n << " topic " << t;
      }
    }
  }
}

TEST(FaultFuzz, SubscriptionStormsMatchTheUnmemoizedTwin) {
  // Subscribe/unsubscribe storms beside leave/join churn, including
  // subscription changes while offline followed by a rejoin. Stale SetIds
  // would serve wrong memoized scores and break rankings silently, so the
  // memoized system must stay bit-identical to a twin without the memo,
  // and each node's SetId and proposal slots must follow its subscriptions
  // after every operation.
  if (!core::utility_cache_env_enabled()) {
    GTEST_SKIP() << "VITIS_UTILITY_CACHE disables the memo under test";
  }
  const std::uint64_t seed = kBaseSeed + 900 + seed_offset();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 120;
  params.subscriptions.topics = 40;
  params.subscriptions.subs_per_node = 6;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.rate_alpha = 1.0;  // skewed rates: the memoized scoring path
  params.seed = seed;
  const auto scenario = workload::make_synthetic_scenario(params);

  core::VitisConfig config;
  config.gateway_silence_limit = 3;  // its counters follow topic positions
  core::VitisConfig unmemoized = config;
  unmemoized.utility_cache_slots = 0;
  auto memo = workload::make_vitis(scenario, config, seed);
  auto plain = workload::make_vitis(scenario, unmemoized, seed);
  ASSERT_TRUE(memo->utility_cache().enabled());
  ASSERT_FALSE(plain->utility_cache().enabled());
  memo->run_cycles(kWarmupCycles);
  plain->run_cycles(kWarmupCycles);
  const std::uint64_t hits_before = memo->utility_cache().stats().hits;

  enum class Op { kSubscribe, kUnsubscribe, kLeave, kJoin };
  const std::size_t n = memo->node_count();
  const std::size_t topics = memo->subscriptions().topic_count();
  std::vector<ids::NodeIndex> offline;
  std::vector<bool> changed_offline(n, false);
  std::size_t offline_changes = 0;
  std::size_t changed_rejoins = 0;
  const auto apply = [&](Op op, ids::NodeIndex node, ids::TopicIndex topic) {
    const bool was_alive = memo->is_alive(node);
    bool changed = false;
    for (core::VitisSystem* system : {memo.get(), plain.get()}) {
      const std::uint64_t interned = system->registry().intern_calls();
      switch (op) {
        case Op::kSubscribe:
          changed = system->subscribe(node, topic);
          break;
        case Op::kUnsubscribe:
          changed = system->unsubscribe(node, topic);
          break;
        case Op::kLeave:
          system->node_leave(node);
          break;
        case Op::kJoin:
          system->node_join(node);
          changed = !was_alive;
          break;
      }
      // A subscription change and a rejoin each re-intern the node's set
      // exactly once; nothing else interns.
      EXPECT_EQ(system->registry().intern_calls() - interned,
                changed ? 1u : 0u);
      expect_subscription_state_consistent(*system);
    }
    if (op == Op::kLeave && was_alive) offline.push_back(node);
    if (op == Op::kJoin && !was_alive) {
      offline.erase(std::find(offline.begin(), offline.end(), node));
      if (changed_offline[node]) ++changed_rejoins;
      changed_offline[node] = false;
    }
    if ((op == Op::kSubscribe || op == Op::kUnsubscribe) && changed &&
        !was_alive) {
      ++offline_changes;
      changed_offline[node] = true;
    }
  };

  sim::Rng rng(seed ^ 0x73746f726dULL);  // "storm"
  for (std::size_t cycle = 0; cycle < 48; ++cycle) {
    SCOPED_TRACE("storm cycle " + std::to_string(cycle));
    // One cycle in three is quiet, so the memo repopulates between storms.
    const std::size_t ops = rng.index(3) == 0 ? 0 : 1 + rng.index(10);
    for (std::size_t k = 0; k < ops; ++k) {
      const auto node = static_cast<ids::NodeIndex>(rng.index(n));
      const pubsub::SubscriptionSet& subs = memo->subscriptions().of(node);
      switch (rng.index(6)) {
        case 0:
        case 1:
          apply(Op::kSubscribe, node,
                static_cast<ids::TopicIndex>(rng.index(topics)));
          break;
        case 2:
          if (!subs.empty()) {
            apply(Op::kUnsubscribe, node,
                  subs.topics()[rng.index(subs.size())]);
          }
          break;
        case 3:
          // Change the subscriptions of an offline node; it rejoins later.
          apply(Op::kLeave, node, 0);
          apply(Op::kSubscribe, node,
                static_cast<ids::TopicIndex>(rng.index(topics)));
          if (!subs.empty()) {
            apply(Op::kUnsubscribe, node,
                  subs.topics()[rng.index(subs.size())]);
          }
          break;
        default:
          // Churn: rejoin an offline node or take an alive one down,
          // keeping most of the network online.
          if (!offline.empty() && (offline.size() > 12 || rng.index(2) == 0)) {
            apply(Op::kJoin, offline[rng.index(offline.size())], 0);
          } else {
            apply(Op::kLeave, node, 0);
          }
          break;
      }
      if (HasFatalFailure()) return;
    }
    memo->run_cycles(1);
    plain->run_cycles(1);
    expect_same_overlay(*memo, *plain);
    if (HasFatalFailure()) return;
  }

  EXPECT_GT(offline_changes, 0u);
  EXPECT_GT(changed_rejoins, 0u);
  // The memo served scores during the storm and was never dropped.
  const core::UtilityCacheStats& stats = memo->utility_cache().stats();
  EXPECT_GT(stats.hits, hits_before);
  EXPECT_EQ(stats.invalidations, 0u);
}

}  // namespace
}  // namespace vitis
