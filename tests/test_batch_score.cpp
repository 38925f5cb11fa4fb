// Differential suite for the SIMD batch-scoring kernel (core::BatchScorer
// over support/simd.hpp).
//
// The kernel only ships because these tests prove the batched path is
// bit-identical to the per-candidate reference path: identical score bits
// (compared through bit_cast, never EXPECT_DOUBLE_EQ), identical prefilter
// counters, and identical memo traffic. The SIMD primitives are further
// differenced against their scalar implementations on ragged sizes around
// the 4/8-lane widths — on a scalar build both sides are the same code,
// on an AVX2 build (VITIS_SIMD=avx2) the vector lanes are under test; CI
// runs the suite on both ISA paths.
//
// Under skewed rates the kernel sums the Eq.-1 denominator with its own
// exact union merge, four candidates interleaved, while the reference
// keeps pubsub::weighted_union; the randomized corpus spreads the rates
// over sixty binary orders of magnitude, so any reassociated or skipped
// addition changes the bits.
//
// The randomized corpus mirrors test_fault_fuzz: every case is wrapped in
// a SCOPED_TRACE carrying a one-line `seed=...` repro, and the corpus
// shifts with the BATCH_SCORE_SEED_OFFSET environment variable so
// scheduled runs sweep fresh corners while any failure stays replayable.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/batch_score.hpp"
#include "core/utility.hpp"
#include "ids/hash.hpp"
#include "ids/id.hpp"
#include "pubsub/subscription.hpp"
#include "pubsub/subscription_registry.hpp"
#include "sim/rng.hpp"
#include "support/simd.hpp"

namespace vitis {
namespace {

namespace simd = support::simd;

std::uint64_t seed_offset() {
  const char* env = std::getenv("BATCH_SCORE_SEED_OFFSET");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// ---------------------------------------------------------------------------
// SIMD primitives: dispatch vs scalar vs definition.
// ---------------------------------------------------------------------------

TEST(Simd, Mix64PinsIdsMix64) {
  // support must not include ids, so the SplitMix64 constants are
  // duplicated; this pin is what keeps the copies from drifting.
  sim::Rng rng(0x6d69783634ULL);
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}}) {
    EXPECT_EQ(simd::mix64(x), ids::mix64(x));
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.next_u64();
    EXPECT_EQ(simd::mix64(x), ids::mix64(x));
  }
}

TEST(Simd, Mix64BatchMatchesScalarOnRaggedSizes) {
  sim::Rng rng(0x6261746368313233ULL);
  for (std::size_t n = 0; n <= 70; ++n) {  // crosses the 4-lane boundary 17x
    std::vector<std::uint64_t> in(n);
    for (auto& v : in) v = rng.next_u64();
    std::vector<std::uint64_t> expect(n);
    simd::scalar::mix64_batch(in.data(), n, expect.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(expect[i], ids::mix64(in[i]));
    }
    std::vector<std::uint64_t> got(n);
    simd::mix64_batch(in.data(), n, got.data());
    ASSERT_EQ(got, expect) << "n=" << n;
    // Exact in-place aliasing is part of the contract (the memo-prefetch
    // pass hashes its key scratch in place).
    simd::mix64_batch(in.data(), n, in.data());
    ASSERT_EQ(in, expect) << "n=" << n;
  }
}

TEST(Simd, DisjointMaskMatchesScalarAndDefinition) {
  sim::Rng rng(0x6469736a6f696e74ULL);
  for (std::size_t n = 0; n <= 70; ++n) {
    // Sparse fingerprints so both verdicts actually occur.
    const std::uint64_t probe = rng.next_u64() & rng.next_u64() &
                                rng.next_u64();
    std::vector<std::uint64_t> fps(n);
    for (auto& fp : fps) fp = rng.next_u64() & rng.next_u64() & rng.next_u64();
    std::vector<std::uint8_t> expect(n);
    simd::scalar::disjoint_mask(probe, fps.data(), n, expect.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(expect[i] != 0, pubsub::fingerprints_disjoint(probe, fps[i]));
    }
    std::vector<std::uint8_t> got(n);
    simd::disjoint_mask(probe, fps.data(), n, got.data());
    ASSERT_EQ(got, expect) << "n=" << n;
  }
}

TEST(Simd, StampedCountMatchesScalar) {
  sim::Rng rng(0x7374616d70636e74ULL);
  constexpr std::size_t kTopics = 512;
  std::vector<std::uint32_t> stamp(kTopics);
  const std::uint32_t epoch = 7;
  for (auto& s : stamp) s = rng.bernoulli(0.3) ? epoch : 0;
  for (std::size_t n = 0; n <= 70; ++n) {  // crosses the 8-lane boundary 8x
    std::vector<std::uint32_t> topics(n);
    for (auto& t : topics) {
      t = static_cast<std::uint32_t>(rng.index(kTopics));
    }
    const std::size_t expect =
        simd::scalar::stamped_count(topics.data(), n, stamp.data(), epoch);
    EXPECT_EQ(simd::stamped_count(topics.data(), n, stamp.data(), epoch),
              expect)
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Kernel vs per-candidate reference path.
// ---------------------------------------------------------------------------

struct Pool {
  std::vector<pubsub::SubscriptionSet> sets;
  std::vector<pubsub::SetId> ids;  // kInvalidSetId when not interned
};

// Scores `pool` against prepared set `a` through both paths — the
// per-candidate score() reference and BatchScorer — on two independently
// configured UtilityFunction/cache instances, both on lane 0, and requires
// bit-identical scores, prefilter counters, and memo counters. Two rounds,
// each closed by commit_lanes() where a wave barrier would: the first
// misses, the second hits whatever the first left in the table.
void expect_batch_matches_reference(std::span<const double> rates,
                                    const pubsub::SubscriptionSet& a,
                                    pubsub::SetId a_id, const Pool& pool,
                                    bool prefilter, std::size_t cache_slots) {
  core::UtilityFunction ref(rates);
  core::UtilityFunction bat(rates);
  ref.set_prefilter_enabled(prefilter);
  bat.set_prefilter_enabled(prefilter);
  core::PairUtilityCache ref_cache(cache_slots);
  core::PairUtilityCache bat_cache(cache_slots);
  if (cache_slots > 0) {
    ref.set_cache(&ref_cache);
    bat.set_cache(&bat_cache);
  }

  core::BatchScorer scorer;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ref.prepare(a, a_id);
    std::vector<double> expect;
    for (std::size_t i = 0; i < pool.sets.size(); ++i) {
      expect.push_back(ref.score(pool.sets[i], pool.ids[i]));
    }

    bat.prepare(a, a_id);
    scorer.clear();
    for (std::size_t i = 0; i < pool.sets.size(); ++i) {
      scorer.add(static_cast<ids::NodeIndex>(i), &pool.sets[i],
                 pool.sets[i].fingerprint(), pool.ids[i]);
    }
    scorer.score_all(bat);

    ASSERT_EQ(scorer.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(scorer.scores()[i]),
                std::bit_cast<std::uint64_t>(expect[i]))
          << "candidate " << i;
    }
    ref_cache.commit_lanes();
    bat_cache.commit_lanes();
  }
  EXPECT_EQ(bat.prefilter_stats().calls, ref.prefilter_stats().calls);
  EXPECT_EQ(bat.prefilter_stats().rejects, ref.prefilter_stats().rejects);
  EXPECT_EQ(bat_cache.stats().hits, ref_cache.stats().hits);
  EXPECT_EQ(bat_cache.stats().misses, ref_cache.stats().misses);
  EXPECT_EQ(bat_cache.stats().evictions, ref_cache.stats().evictions);
}

std::vector<ids::TopicIndex> subset_topics(std::uint64_t mask) {
  std::vector<ids::TopicIndex> topics;
  for (std::uint32_t t = 0; t < 64; ++t) {
    if ((mask >> t) & 1U) topics.push_back(t);
  }
  return topics;
}

// Every subset pair of a small universe, so every overlap/disjoint corner
// (including the empty set on either side) is hit, under uniform and
// skewed rates, prefilter on and off, memo on and off.
TEST(BatchScore, ExhaustiveSmallUniverseMatchesReference) {
  constexpr std::size_t kTopics = 6;  // 64 subsets
  constexpr std::uint64_t kSubsets = std::uint64_t{1} << kTopics;
  std::vector<double> uniform(kTopics, 1.0);
  std::vector<double> skewed(kTopics);
  for (std::size_t t = 0; t < kTopics; ++t) {
    skewed[t] = 0.25 + 1.75 * static_cast<double>(t);
  }

  pubsub::SubscriptionRegistry registry;
  Pool pool;
  for (std::uint64_t mask = 0; mask < kSubsets; ++mask) {
    pool.sets.emplace_back(subset_topics(mask));
    pool.ids.push_back(registry.intern(pool.sets.back()));
  }

  for (std::uint64_t mask = 0; mask < kSubsets; ++mask) {
    SCOPED_TRACE(::testing::Message() << "prepared mask=" << mask);
    const pubsub::SubscriptionSet a(subset_topics(mask));
    const pubsub::SetId a_id = registry.intern(a);
    for (const bool prefilter : {true, false}) {
      expect_batch_matches_reference(uniform, a, a_id, pool, prefilter, 0);
      expect_batch_matches_reference(skewed, a, a_id, pool, prefilter, 0);
      expect_batch_matches_reference(skewed, a, a_id, pool, prefilter, 64);
    }
  }
}

// Pool sizes 0..9 straddle the 4-lane AVX2 width with every possible tail
// shape (and n = 0, the empty-buffer edge).
TEST(BatchScore, RaggedPoolTailsMatchReference) {
  constexpr std::size_t kTopics = 40;
  std::vector<double> skewed(kTopics);
  for (std::size_t t = 0; t < kTopics; ++t) {
    skewed[t] = 1.0 + 0.5 * static_cast<double>(t % 7);
  }
  sim::Rng rng(0x7261676765640a00ULL);
  pubsub::SubscriptionRegistry registry;
  for (std::size_t n = 0; n <= 9; ++n) {
    SCOPED_TRACE(::testing::Message() << "pool size " << n);
    Pool pool;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<ids::TopicIndex> topics;
      const std::size_t count = rng.index(6);
      for (std::size_t k = 0; k < count; ++k) {
        topics.push_back(static_cast<ids::TopicIndex>(rng.index(kTopics)));
      }
      pool.sets.emplace_back(std::move(topics));
      pool.ids.push_back(registry.intern(pool.sets.back()));
    }
    std::vector<ids::TopicIndex> mine;
    for (std::size_t k = 0; k < 4; ++k) {
      mine.push_back(static_cast<ids::TopicIndex>(rng.index(kTopics)));
    }
    const pubsub::SubscriptionSet a(std::move(mine));
    const pubsub::SetId a_id = registry.intern(a);
    expect_batch_matches_reference(skewed, a, a_id, pool, true, 16);
    expect_batch_matches_reference(skewed, a, a_id, pool, false, 16);
  }
}

// The kernel's batched prefilter verdicts must be exactly
// fingerprints_disjoint of the live sets — accept and reject both
// exercised — and with the prefilter disabled every candidate must pay the
// merge (reject count pinned to zero).
TEST(BatchScore, PrefilterAcceptRejectParity) {
  constexpr std::size_t kTopics = 200;
  // Two disjoint topic blocks guarantee genuinely disjoint pairs (not just
  // fingerprint luck) alongside overlapping ones.
  std::vector<ids::TopicIndex> low{1, 5, 9};
  std::vector<ids::TopicIndex> high{150, 160, 170};
  const pubsub::SubscriptionSet a(low);
  Pool pool;
  pool.sets.emplace_back(low);                                  // identical
  pool.sets.emplace_back(high);                                 // disjoint
  pool.sets.emplace_back(std::vector<ids::TopicIndex>{5, 160});  // overlap
  pool.sets.emplace_back(std::vector<ids::TopicIndex>{});        // empty
  pool.ids.assign(pool.sets.size(), pubsub::kInvalidSetId);

  core::UtilityFunction u = core::UtilityFunction::uniform(kTopics);
  u.prepare(a);
  core::BatchScorer scorer;
  for (std::size_t i = 0; i < pool.sets.size(); ++i) {
    scorer.add(static_cast<ids::NodeIndex>(i), &pool.sets[i],
               pool.sets[i].fingerprint(), pool.ids[i]);
  }
  scorer.score_all(u);
  EXPECT_GT(scorer.scores()[0], 0.0);
  EXPECT_EQ(scorer.scores()[1], 0.0);
  EXPECT_GT(scorer.scores()[2], 0.0);
  EXPECT_EQ(scorer.scores()[3], 0.0);
  EXPECT_EQ(u.prefilter_stats().calls, 4u);
  // The disjoint-block and empty candidates are fingerprint rejects; the
  // overlapping ones must never be.
  EXPECT_GE(u.prefilter_stats().rejects, 2u);

  std::vector<double> rates(kTopics, 1.0);
  expect_batch_matches_reference(rates, a, pubsub::kInvalidSetId, pool, true,
                                 0);
  core::UtilityFunction off = core::UtilityFunction::uniform(kTopics);
  off.set_prefilter_enabled(false);
  off.prepare(a);
  scorer.score_all(off);
  EXPECT_EQ(off.prefilter_stats().rejects, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scorer.scores()[1]),
            std::bit_cast<std::uint64_t>(0.0));
}

// Seed-enumerated randomized corpus (pattern of test_fault_fuzz): random
// universes, pool sizes, rate skews, prefilter/memo toggles. Skewed rates
// span 2^-30 to 2^30, with a few zeros, so any reassociated, reordered or
// skipped addition in the union sum changes the bits. Sets reach 120
// topics and often hold topic 0 and the last topic, the ends of the
// merge. Every other case draws a pool of 0 to 9 candidates in turn, so
// the kernel's merge count takes every tail of its 4-wide groups. Any
// failure prints a one-line seed=... repro.
TEST(BatchScore, RandomizedCorpusMatchesReference) {
  constexpr std::uint64_t kCases = 64;
  const std::uint64_t offset = seed_offset();
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const std::uint64_t seed = 0xbeefcafe0000ULL + offset + c;
    sim::Rng rng(seed);
    const std::size_t topics = 16 + rng.index(384);
    const std::size_t pool_size =
        c % 2 == 0 ? (c / 2) % 10 : rng.index(200);
    const bool skewed = rng.bernoulli(0.5);
    const bool prefilter = rng.bernoulli(0.75);
    const bool cache = rng.bernoulli(0.5);
    const std::size_t max_set = 1 + rng.index(120);
    char repro[192];
    std::snprintf(repro, sizeof repro,
                  "seed=%llu topics=%zu pool=%zu skewed=%d prefilter=%d "
                  "cache=%d max_set=%zu",
                  static_cast<unsigned long long>(seed), topics, pool_size,
                  skewed ? 1 : 0, prefilter ? 1 : 0, cache ? 1 : 0, max_set);
    SCOPED_TRACE(repro);

    std::vector<double> rates(topics, 1.0);
    if (skewed) {
      for (auto& r : rates) {
        const int exponent = static_cast<int>(rng.index(61)) - 30;
        r = rng.bernoulli(0.02)
                ? 0.0
                : std::ldexp(rng.uniform_real(1.0, 2.0), exponent);
      }
    }
    pubsub::SubscriptionRegistry registry;
    const auto random_set = [&]() {
      std::vector<ids::TopicIndex> t;
      const std::size_t count = rng.index(max_set + 1);
      for (std::size_t k = 0; k < count; ++k) {
        t.push_back(static_cast<ids::TopicIndex>(rng.index(topics)));
      }
      if (rng.bernoulli(0.3)) t.push_back(0);
      if (rng.bernoulli(0.3)) {
        t.push_back(static_cast<ids::TopicIndex>(topics - 1));
      }
      return pubsub::SubscriptionSet(std::move(t));
    };
    Pool pool;
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool.sets.push_back(random_set());
      // A few un-interned candidates keep the kInvalidSetId bypass hot.
      pool.ids.push_back(rng.bernoulli(0.9)
                             ? registry.intern(pool.sets.back())
                             : pubsub::kInvalidSetId);
    }
    const pubsub::SubscriptionSet a = random_set();
    const pubsub::SetId a_id = registry.intern(a);
    expect_batch_matches_reference(rates, a, a_id, pool, prefilter,
                                   cache ? 128 : 0);
  }
}

// ---------------------------------------------------------------------------
// Ranking permutation stability.
// ---------------------------------------------------------------------------

// Shuffling candidate-pool insertion order (deterministic permutations
// from Rng::at) must yield the identical top-k node sequence: scores are a
// pure function of the pair, and rank_top_k's tie-break keys on the node
// index — never the lane or pool position.
TEST(BatchScore, RankingIsPermutationStable) {
  constexpr std::size_t kTopics = 64;
  constexpr std::size_t kCandidates = 120;
  constexpr std::uint64_t kSeed = 0x7065726d75746540ULL;
  std::vector<double> rates(kTopics);
  for (std::size_t t = 0; t < kTopics; ++t) {
    rates[t] = 0.5 + static_cast<double>(t % 5);
  }
  sim::Rng rng(kSeed);
  pubsub::SubscriptionRegistry registry;
  std::vector<pubsub::SubscriptionSet> sets;
  std::vector<pubsub::SetId> ids;
  for (std::size_t i = 0; i < kCandidates; ++i) {
    std::vector<ids::TopicIndex> topics;
    const std::size_t count = rng.index(8);
    for (std::size_t k = 0; k < count; ++k) {
      topics.push_back(static_cast<ids::TopicIndex>(rng.index(kTopics)));
    }
    sets.emplace_back(std::move(topics));
    ids.push_back(registry.intern(sets.back()));
  }
  const pubsub::SubscriptionSet mine(
      std::vector<ids::TopicIndex>{3, 17, 40, 63});
  const pubsub::SetId my_id = registry.intern(mine);
  const std::uint64_t tie_salt = ids::mix64(0x7469656272656b00ULL);

  core::UtilityFunction utility(rates);
  core::PairUtilityCache cache(256);
  utility.set_cache(&cache);

  const auto top_k_of = [&](std::span<const std::size_t> order,
                            std::size_t k) {
    core::BatchScorer scorer;
    utility.prepare(mine, my_id);
    for (const std::size_t i : order) {
      scorer.add(static_cast<ids::NodeIndex>(i), &sets[i],
                 sets[i].fingerprint(), ids[i]);
    }
    scorer.score_all(utility);
    cache.commit_lanes();  // later permutations rank memo hits
    std::vector<std::pair<double, std::size_t>> ranked;
    core::rank_top_k(scorer.scores(), scorer.nodes(), tie_salt, k, ranked);
    std::vector<ids::NodeIndex> nodes;
    for (const auto& [score, index] : ranked) {
      nodes.push_back(scorer.nodes()[index]);
    }
    return nodes;
  };

  std::vector<std::size_t> order(kCandidates);
  for (std::size_t i = 0; i < kCandidates; ++i) order[i] = i;
  for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                              std::size_t{30}, kCandidates, kCandidates + 5}) {
    const auto baseline = top_k_of(order, k);
    for (std::uint64_t perm = 0; perm < 12; ++perm) {
      // Counter-based fork: the permutation sequence is a pure function of
      // (seed, perm), independent of any shared stream state.
      sim::Rng perm_rng = sim::Rng::at(kSeed, 0x7065726dULL, perm, k);
      std::vector<std::size_t> shuffled = order;
      perm_rng.shuffle(shuffled);
      ASSERT_EQ(top_k_of(shuffled, k), baseline)
          << "k=" << k << " perm=" << perm;
    }
  }
}

}  // namespace
}  // namespace vitis
