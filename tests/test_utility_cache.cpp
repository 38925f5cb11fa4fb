// core::PairUtilityCache and the memoized scoring path: cached scores are
// bit-identical to the fresh merge, eviction is deterministic, epoch
// invalidation (including wraparound) drops every entry, and the system
// wiring invalidates on subscription change / churn rejoin.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/utility.hpp"
#include "core/vitis_system.hpp"
#include "pubsub/subscription_registry.hpp"
#include "sim/rng.hpp"
#include "workload/scenario.hpp"

namespace vitis::core {
namespace {

pubsub::SubscriptionSet random_set(sim::Rng& rng, std::size_t count,
                                   std::size_t topics) {
  std::vector<ids::TopicIndex> picks;
  for (std::size_t i = 0; i < count; ++i) {
    picks.push_back(static_cast<ids::TopicIndex>(rng.index(topics)));
  }
  return pubsub::SubscriptionSet(std::move(picks));
}

// The tentpole property: for random set pairs — uniform and skewed rates,
// overlapping and disjoint — a cache-attached score returns the exact
// double the two-pointer merge produces. EXPECT_EQ on doubles is
// deliberate: the contract is bit-identical, not approximately equal.
// With skewed rates the memo serves hits; with uniform rates it is
// bypassed entirely (the stamped count merge is cheaper than a probe),
// which the lookup counter pins down.
TEST(PairUtilityCache, CachedScoreIsBitIdenticalToFreshMerge) {
  sim::Rng rng(7);
  std::vector<double> skewed(200);
  for (std::size_t t = 0; t < skewed.size(); ++t) {
    skewed[t] = 1.0 / static_cast<double>(t + 1);
  }
  const UtilityFunction uniform = UtilityFunction::uniform(200);
  const UtilityFunction weighted{std::span<const double>(skewed)};
  for (const UtilityFunction* u : {&uniform, &weighted}) {
    const bool memoizes = (u == &weighted);
    UtilityFunction cached = *u;
    PairUtilityCache cache(1 << 10);
    cached.set_cache(&cache);
    pubsub::SubscriptionRegistry registry;
    std::vector<pubsub::SubscriptionSet> sets;
    std::vector<pubsub::SetId> ids;
    for (int i = 0; i < 32; ++i) {
      // Mixed densities; small universe forces plenty of overlap.
      sets.push_back(random_set(rng, 1 + rng.index(12), 200));
      ids.push_back(registry.intern(sets.back()));
    }
    for (int round = 0; round < 3; ++round) {  // round > 0 hits the memo
      for (std::size_t i = 0; i < sets.size(); ++i) {
        cached.prepare(sets[i], ids[i]);
        for (std::size_t j = 0; j < sets.size(); ++j) {
          const double hit = cached.score(sets[j], ids[j]);
          const double fresh = (*u)(sets[i], sets[j]);
          EXPECT_EQ(hit, fresh) << "pair (" << i << "," << j << ") round "
                                << round;
        }
      }
    }
    if (memoizes) {
      EXPECT_GT(cache.stats().hits, 0u);
      EXPECT_GT(cache.stats().misses, 0u);
    } else {
      EXPECT_EQ(cache.stats().lookups(), 0u);  // all-ones rates: bypassed
    }
  }
}

TEST(PairUtilityCache, KeyIsUnorderedAndLookupCountsStats) {
  PairUtilityCache cache(64);
  cache.insert(3, 9, 0.75);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(3, 9, value));
  EXPECT_EQ(value, 0.75);
  EXPECT_TRUE(cache.lookup(9, 3, value));  // {a, b} == {b, a}
  EXPECT_EQ(value, 0.75);
  EXPECT_FALSE(cache.lookup(3, 10, value));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hit_rate(), 2.0 / 3.0);
}

TEST(PairUtilityCache, DisabledCacheMissesAndDropsInserts) {
  PairUtilityCache cache;  // zero slots
  EXPECT_FALSE(cache.enabled());
  cache.insert(1, 2, 0.5);
  double value = 0.0;
  EXPECT_FALSE(cache.lookup(1, 2, value));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_TRUE(std::isnan(PairUtilityCache().stats().hit_rate()));
}

TEST(PairUtilityCache, InvalidateDropsEntriesInO1) {
  PairUtilityCache cache(64);
  cache.insert(1, 2, 0.5);
  cache.insert(3, 4, 0.25);
  const std::uint32_t epoch_before = cache.epoch();
  cache.invalidate();
  EXPECT_EQ(cache.epoch(), epoch_before + 1);
  double value = 0.0;
  EXPECT_FALSE(cache.lookup(1, 2, value));
  EXPECT_FALSE(cache.lookup(3, 4, value));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Re-inserting after the bump works in the new epoch.
  cache.insert(1, 2, 0.5);
  EXPECT_TRUE(cache.lookup(1, 2, value));
  EXPECT_EQ(value, 0.5);
}

// Eviction is deterministic: a full probe window overwrites the
// probe-start slot, and replaying the same insert sequence on a fresh
// cache reproduces the same survivors.
TEST(PairUtilityCache, EvictionIsDeterministic) {
  const auto fill = [](PairUtilityCache& cache) {
    // Tiny cache: collisions are guaranteed well before 4096 pairs.
    for (std::uint32_t a = 0; a < 64; ++a) {
      for (std::uint32_t b = a + 1; b < 64; ++b) {
        cache.insert(a, b, static_cast<double>(a) * 64.0 + b);
      }
    }
  };
  PairUtilityCache first(16);
  PairUtilityCache second(16);
  fill(first);
  fill(second);
  EXPECT_GT(first.stats().evictions, 0u);
  EXPECT_EQ(first.stats().evictions, second.stats().evictions);
  for (std::uint32_t a = 0; a < 64; ++a) {
    for (std::uint32_t b = a + 1; b < 64; ++b) {
      double va = 0.0;
      double vb = 0.0;
      const bool in_first = first.lookup(a, b, va);
      const bool in_second = second.lookup(a, b, vb);
      EXPECT_EQ(in_first, in_second) << "pair (" << a << "," << b << ")";
      if (in_first) {
        EXPECT_EQ(va, vb);
      }
    }
  }
}

TEST(PairUtilityCache, OverwritingSameKeyUpdatesInPlace) {
  PairUtilityCache cache(64);
  cache.insert(5, 6, 0.1);
  cache.insert(5, 6, 0.9);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(5, 6, value));
  EXPECT_EQ(value, 0.9);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// Epoch wraparound: the bump that wraps to the sentinel epoch 0 must clear
// every slot and restart at epoch 1, so stale stamps can never alias a
// future epoch.
TEST(PairUtilityCache, EpochWraparoundClearsAllSlots) {
  PairUtilityCache cache(64);
  cache.set_epoch_for_test(0xFFFFFFFFu);
  cache.insert(1, 2, 0.5);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(1, 2, value));
  cache.invalidate();  // wraps: full clear, epoch back to 1
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_FALSE(cache.lookup(1, 2, value));
  // A pre-wrap stamp must not come back to life in any later epoch.
  cache.invalidate();
  EXPECT_FALSE(cache.lookup(1, 2, value));
  cache.insert(1, 2, 0.25);
  EXPECT_TRUE(cache.lookup(1, 2, value));
  EXPECT_EQ(value, 0.25);
}

TEST(PairUtilityCache, UncachedIdsBypassTheMemo) {
  UtilityFunction u = UtilityFunction::uniform(100);
  PairUtilityCache cache(64);
  u.set_cache(&cache);
  const auto a = pubsub::SubscriptionSet({1, 2, 3});
  const auto b = pubsub::SubscriptionSet({2, 3, 4});
  u.prepare(a);  // no SetId: the legacy un-interned path
  EXPECT_EQ(u.score(b), u(a, b));
  EXPECT_EQ(cache.stats().lookups(), 0u);
}

workload::SyntheticScenario small_scenario() {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 100;
  params.subscriptions.subs_per_node = 10;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.rate_alpha = 1.0;  // skewed rates: the memoized scoring path
  params.seed = 77;
  return workload::make_synthetic_scenario(params);
}

// System wiring: a churn rejoin with a subscription set that changed while
// the node was offline re-interns the profile and invalidates the memo.
TEST(UtilityCacheWiring, ChurnRejoinWithChangedSetInvalidates) {
  if (!utility_cache_env_enabled()) GTEST_SKIP();
  const auto scenario = small_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
  system->run_cycles(8);
  ASSERT_TRUE(system->utility_cache().enabled());
  EXPECT_GT(system->utility_cache().stats().hits, 0u);

  const ids::NodeIndex node = 5;
  system->node_leave(node);
  // Find a topic the node does not hold yet; subscribing changes its set.
  ids::TopicIndex fresh_topic = 0;
  while (system->subscriptions().subscribes(node, fresh_topic)) {
    ++fresh_topic;
  }
  const std::uint64_t before = system->utility_cache().stats().invalidations;
  ASSERT_TRUE(system->subscribe(node, fresh_topic));
  EXPECT_GT(system->utility_cache().stats().invalidations, before);
  system->node_join(node);
  // The rejoined node carries the canonical id of its *new* set.
  const pubsub::SetId id = system->set_id(node);
  ASSERT_NE(id, pubsub::kInvalidSetId);
  EXPECT_TRUE(system->registry().set(id) == system->subscriptions().of(node));
  // And the system keeps running (scores repopulate in the new epoch).
  system->run_cycles(4);
  EXPECT_GT(system->utility_cache().stats().hits, 0u);
}

// A rejoin with an unchanged set keeps the memo: same canonical id, no
// invalidation (the defensive drop only fires when the id changes).
TEST(UtilityCacheWiring, RejoinWithUnchangedSetKeepsTheMemo) {
  if (!utility_cache_env_enabled()) GTEST_SKIP();
  const auto scenario = small_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
  system->run_cycles(8);
  const ids::NodeIndex node = 9;
  const std::uint64_t before = system->utility_cache().stats().invalidations;
  system->node_leave(node);
  system->node_join(node);
  EXPECT_EQ(system->utility_cache().stats().invalidations, before);
}

// Every node's SetId is canonical from construction: the registry maps it
// back to the node's subscription set.
TEST(UtilityCacheWiring, ProfilesCarryCanonicalIdsFromConstruction) {
  const auto scenario = small_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
  EXPECT_LE(system->registry().size(), system->node_count());
  for (ids::NodeIndex node = 0; node < system->node_count(); ++node) {
    const pubsub::SetId id = system->set_id(node);
    ASSERT_NE(id, pubsub::kInvalidSetId);
    EXPECT_TRUE(system->registry().set(id) ==
                system->subscriptions().of(node));
  }
}

}  // namespace
}  // namespace vitis::core
