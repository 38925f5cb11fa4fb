// core::PairUtilityCache and the memoized scoring path: cached scores are
// bit-identical to the fresh merge, eviction is deterministic, an empty slot
// never matches a valid pair, and the system wiring allocates the memo only
// under skewed rates and keeps it across subscription changes and churn
// rejoins.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
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
// With skewed rates the memo serves hits once a round's queued inserts are
// committed (where the T-Man wave barrier commits them); with uniform
// rates it is bypassed entirely (the stamped count merge is cheaper than a
// probe), which the lookup counter pins down.
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
      cache.commit_lanes();
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

// An empty slot holds the all-ones key, which only the invalid pair could
// produce: the extreme valid pairs miss on a fresh table and round-trip
// after an insert.
TEST(PairUtilityCache, EmptyKeyNeverMatchesAValidPair) {
  constexpr pubsub::SetId kMax = pubsub::kInvalidSetId - 1;
  const std::pair<pubsub::SetId, pubsub::SetId> pairs[] = {
      {0, 0}, {0, 1}, {kMax, kMax}};
  PairUtilityCache cache(64);
  double value = -1.0;
  for (const auto& [a, b] : pairs) {
    EXPECT_FALSE(cache.lookup(a, b, value)) << a << "," << b;
  }
  EXPECT_EQ(value, -1.0);
  EXPECT_EQ(cache.stats().misses, 3u);
  double score = 0.125;
  for (const auto& [a, b] : pairs) {
    cache.insert(a, b, score);
    EXPECT_TRUE(cache.lookup(a, b, value)) << a << "," << b;
    EXPECT_EQ(value, score);
    score *= 2.0;
  }
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
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

// The lanes of a T-Man wave: a lane lookup never sees inserts queued in the
// same wave, counts only on its lane until the commit, and the commit
// applies the lanes in order with insert()'s rule — a later lane's value
// for the same pair wins, as a serial replay in exchange order would leave
// it.
TEST(PairUtilityCache, DeferredLanesCommitInLaneOrder) {
  PairUtilityCache cache(64);
  cache.configure_lanes(2);
  cache.insert(1, 2, 0.5);
  double value = 0.0;
  EXPECT_TRUE(cache.lookup(1, 2, value, 1));
  EXPECT_EQ(value, 0.5);
  EXPECT_FALSE(cache.lookup(3, 4, value, 0));
  cache.defer_insert(3, 4, 0.25, 0);
  cache.defer_insert(4, 3, 0.75, 1);
  EXPECT_FALSE(cache.lookup(3, 4, value, 1));  // queued, not yet visible
  EXPECT_EQ(cache.stats().lookups(), 0u);      // lane counts wait too
  cache.commit_lanes();
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_TRUE(cache.lookup(3, 4, value));
  EXPECT_EQ(value, 0.75);
  cache.commit_lanes();  // nothing queued: no change
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
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

// rate_alpha 1.0 gives skewed rates (the memoized scoring path), 0 uniform.
workload::SyntheticScenario small_scenario(double rate_alpha = 1.0) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 100;
  params.subscriptions.subs_per_node = 10;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.events = 8;
  params.rate_alpha = rate_alpha;
  params.seed = 77;
  return workload::make_synthetic_scenario(params);
}

bool same_stats(const UtilityCacheStats& a, const UtilityCacheStats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.invalidations == b.invalidations;
}

// System wiring: subscribing and rejoining with a set that changed while
// the node was offline re-intern the node but leave the memo untouched, and
// the following cycles keep hitting it.
TEST(UtilityCacheWiring, SubscriptionChangesKeepTheMemo) {
  if (!utility_cache_env_enabled()) GTEST_SKIP();
  const auto scenario = small_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
  system->run_cycles(8);
  ASSERT_TRUE(system->utility_cache().enabled());
  EXPECT_GT(system->utility_cache().stats().hits, 0u);
  const auto unsubscribed = [&](ids::NodeIndex node) {
    ids::TopicIndex topic = 0;
    while (system->subscriptions().subscribes(node, topic)) ++topic;
    return topic;
  };

  // An online node subscribes.
  UtilityCacheStats before = system->utility_cache().stats();
  ASSERT_TRUE(system->subscribe(3, unsubscribed(3)));
  EXPECT_TRUE(same_stats(system->utility_cache().stats(), before));

  // An offline node subscribes, then rejoins with the changed set.
  const ids::NodeIndex node = 5;
  system->node_leave(node);
  const pubsub::SetId old_id = system->set_id(node);
  before = system->utility_cache().stats();
  ASSERT_TRUE(system->subscribe(node, unsubscribed(node)));
  system->node_join(node);
  EXPECT_TRUE(same_stats(system->utility_cache().stats(), before));
  // The rejoined node carries the canonical id of its *new* set.
  const pubsub::SetId id = system->set_id(node);
  ASSERT_NE(id, pubsub::kInvalidSetId);
  EXPECT_NE(id, old_id);
  EXPECT_TRUE(system->registry().set(id) == system->subscriptions().of(node));

  for (int cycle = 0; cycle < 4; ++cycle) {
    const std::uint64_t hits = system->utility_cache().stats().hits;
    system->run_cycles(1);
    EXPECT_GT(system->utility_cache().stats().hits, hits) << cycle;
  }
  EXPECT_EQ(system->utility_cache().stats().invalidations, 0u);
}

// The memo exists only where score() can consult it: all-ones rates get no
// table and count nothing; skewed rates get the configured 2^19 slots.
TEST(UtilityCacheWiring, UniformRatesAllocateNoMemo) {
  auto uniform = workload::make_vitis(small_scenario(0.0), VitisConfig{}, 77);
  EXPECT_EQ(uniform->utility_cache().capacity(), 0u);
  uniform->run_cycles(4);
  EXPECT_TRUE(same_stats(uniform->utility_cache().stats(), {}));

  if (!utility_cache_env_enabled()) GTEST_SKIP();
  auto skewed = workload::make_vitis(small_scenario(), VitisConfig{}, 77);
  EXPECT_EQ(skewed->utility_cache().capacity(), std::size_t{1} << 19);
}

// A rejoin with an unchanged set keeps the memo and the canonical id.
TEST(UtilityCacheWiring, RejoinWithUnchangedSetKeepsTheMemo) {
  if (!utility_cache_env_enabled()) GTEST_SKIP();
  const auto scenario = small_scenario();
  auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
  system->run_cycles(8);
  const ids::NodeIndex node = 9;
  const pubsub::SetId id = system->set_id(node);
  const UtilityCacheStats before = system->utility_cache().stats();
  system->node_leave(node);
  system->node_join(node);
  EXPECT_TRUE(same_stats(system->utility_cache().stats(), before));
  EXPECT_EQ(system->set_id(node), id);
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
