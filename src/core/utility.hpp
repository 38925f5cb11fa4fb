// The preference (utility) function of §III-A2, Equation 1:
//
//            Σ_{t ∈ subs(i) ∩ subs(j)} rate(t)
//   u(i,j) = ---------------------------------
//            Σ_{t ∈ subs(i) ∪ subs(j)} rate(t)
//
// With uniform rates this is plain Jaccard similarity of subscription sets;
// skewed rates weight shared hot topics up, so clusters consolidate around
// high-traffic topics first (evaluated in Fig. 7).
//
// Hot-path accelerations, all bit-identical to the plain linear-merge
// evaluation (DESIGN.md "Hot path & determinism"):
//
//  * Fingerprint prefilter — disjoint subscription fingerprints prove an
//    empty intersection, so the pair scores 0 without touching either set.
//    Conservative by construction; deterministic hit counters are exposed
//    for telemetry and can be disabled for A/B property tests.
//  * Batch scoring — ranking evaluates one fixed set `a` against many
//    candidates. prepare(a) stamps a's topics into a topic-indexed epoch
//    array; score(b) then finds the shared topics in O(|b|) while visiting
//    them in the same ascending order as the merge, so the floating-point
//    sums (and with all-ones rates, the integer counts) are unchanged.
//  * Exact union kernel — under skewed rates the Eq.-1 denominator is a
//    left fold of the rates over a ∪ b in ascending topic order.
//    split_shared(b) writes the topics of b that a lacks to a
//    sentinel-ended list, and union_sums() merges that list with a's
//    sentinel-ended copy in exactly |a| + |b \ a| branch-free steps: each
//    step adds the rate of the smaller head and advances its side by a
//    compare. The two lists are disjoint and ascending, so every union
//    topic is added once, in ascending order — the same IEEE additions as
//    pubsub::weighted_union. core::BatchScorer runs up to four such merges
//    interleaved in one loop, one accumulator each; score() and
//    operator() stay on weighted_union as the per-candidate reference.
//  * Pairwise memoization — subscription sets are hash-consed into dense
//    SetIds (pubsub::SubscriptionRegistry); a PairUtilityCache keyed on the
//    unordered id pair stores the exact double the merge produced, so a
//    repeated (set, set) evaluation is one probe instead of a merge.
//    SetIds are canonical and never reused, so a cached value can never
//    drift from the fresh score and the memo is never dropped, not even
//    when a node's subscriptions change. Scoring reads the table as it
//    stood at the last commit_lanes() and queues its inserts on its lane
//    (lane 0 unless set_cache names another); the T-Man wave barrier
//    commits the lanes in worker order, so concurrent rankings never
//    write the table. `VITIS_UTILITY_CACHE=off` disables it with
//    byte-identical stdout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ids/id.hpp"
#include "pubsub/subscription.hpp"
#include "pubsub/subscription_registry.hpp"
#include "support/check.hpp"

namespace vitis::core {

/// Deterministic prefilter counters: pairs scored and pairs rejected by the
/// fingerprint test alone. Deterministic per (seed, scale) — safe to use as
/// a figure metric.
struct PrefilterStats {
  std::uint64_t calls = 0;
  std::uint64_t rejects = 0;
};

/// Deterministic cache counters. hits/misses count lookups on pairs where
/// both SetIds are valid; evictions count live slots overwritten because a
/// probe window filled up. invalidations always reads 0 (no entry can go
/// stale); it stays because the artifacts' counter blocks carry it.
struct UtilityCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  /// Hit fraction; NaN when no lookup happened yet (serialized as JSON
  /// null by the recorder, matching the window gauges).
  [[nodiscard]] double hit_rate() const;
};

/// Flat open-addressing memo of Eq.-1 scores keyed on the unordered
/// (SetId, SetId) pair. Bounded: power-of-two slot count, linear probe over
/// a fixed window, and when the window is full the probe-start slot is
/// overwritten — a deterministic eviction rule with no clocks or use
/// counters involved. A slot is 16 bytes, key and score; an empty slot holds
/// the all-ones key, which only the pair (kInvalidSetId, kInvalidSetId)
/// could produce.
class PairUtilityCache {
 public:
  /// Disabled (zero-slot) cache: lookups miss, inserts drop.
  PairUtilityCache() = default;

  /// Cache with at least `min_slots` slots (rounded up to a power of two);
  /// 0 constructs a disabled cache.
  explicit PairUtilityCache(std::size_t min_slots) { reset(min_slots); }

  /// Drop all entries and stats, resizing to `min_slots` (0 = disable).
  void reset(std::size_t min_slots);

  [[nodiscard]] bool enabled() const { return !slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// If the pair {a, b} is cached, write its score to `value` and count a
  /// hit; otherwise count a miss. Both ids must be valid. Never allocates.
  /// This and insert() are the bare table primitives; scoring uses only
  /// the lane API below.
  [[nodiscard]] bool lookup(pubsub::SetId a, pubsub::SetId b, double& value);

  /// Hint the probe-start slots of {a, bs[i]} into cache ahead of lookup(),
  /// for every candidate whose skip[i] is 0 and whose id is valid,
  /// computing all the probe hashes in one SIMD mix64 pass first
  /// (support::simd). Ranking calls it once over its candidate pool before
  /// scoring, so the table probes overlap instead of serializing on memory
  /// latency. Pure perf hint: no stats, no state change. `key_scratch` is
  /// caller-owned reusable storage (core::BatchScorer passes a member,
  /// keeping ranking allocation-free at steady state).
  void prefetch_batch(pubsub::SetId a, std::span<const pubsub::SetId> bs,
                      std::span<const std::uint8_t> skip,
                      std::vector<std::uint64_t>& key_scratch) const;

  /// Memoize the score of the pair {a, b}. Prefers an empty slot in the
  /// probe window; otherwise evicts the probe-start slot. Never allocates.
  void insert(pubsub::SetId a, pubsub::SetId b, double value);

  // --- deferred lanes: concurrent readers, one writer at the barrier ------
  /// Size the deferred lanes (>= 1), one per worker that scores
  /// concurrently. Queued inserts and counts are dropped.
  void configure_lanes(std::size_t lanes);

  /// lookup() for a concurrent reader: probes the table as it stood at the
  /// last commit_lanes() without writing it, and counts the hit or miss on
  /// `lane`.
  [[nodiscard]] bool lookup(pubsub::SetId a, pubsub::SetId b, double& value,
                            std::size_t lane);

  /// Queue the memoization of {a, b} on `lane`; commit_lanes() inserts it.
  /// Allocation-free once the lane reached its high-water size.
  void defer_insert(pubsub::SetId a, pubsub::SetId b, double value,
                    std::size_t lane);

  /// Insert every queued pair with insert()'s rule — lanes in order, each
  /// in queue order — and fold the lanes' hit and miss counts into
  /// stats(). Call when no lane reader runs (the wave barrier).
  void commit_lanes();

  /// Totals as of the last commit_lanes() (exact between waves).
  [[nodiscard]] const UtilityCacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kEmptyKey;
    double value = 0.0;
  };
  static_assert(sizeof(Slot) == 16);

  static constexpr std::size_t kProbeWindow = 8;

  struct Pending {
    std::uint64_t key;  // pair_key of the pair
    double value;
  };
  // Cache-line aligned, so concurrent lanes share no line.
  struct alignas(64) Lane {
    std::vector<Pending> inserts;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  [[nodiscard]] bool probe(pubsub::SetId a, pubsub::SetId b,
                           double& value) const;
  void insert_key(std::uint64_t key, double value);

  std::vector<Slot> slots_;  // power-of-two size; empty = disabled
  std::uint64_t mask_ = 0;
  UtilityCacheStats stats_;
  std::vector<Lane> lanes_{Lane{}};
};

/// The `VITIS_UTILITY_CACHE` kill switch: "off" or "0" disables the
/// memoized scoring path (stdout must stay byte-identical either way);
/// anything else, including unset, enables it.
[[nodiscard]] bool utility_cache_env_enabled();

class UtilityFunction {
 public:
  /// Above every TopicIndex (the constructor checks the topic count): ends
  /// the topic lists the exact union kernel merges.
  static constexpr ids::TopicIndex kTopicSentinel = ids::kInvalidTopic;

  /// `rates[t]` is the publication rate of topic t. Rates must be
  /// non-negative; they need not be normalized (Eq. 1 is scale-free).
  explicit UtilityFunction(std::span<const double> rates);

  /// Uniform-rate utility over `topic_count` topics (pure Jaccard).
  static UtilityFunction uniform(std::size_t topic_count);

  [[nodiscard]] double operator()(const pubsub::SubscriptionSet& a,
                                  const pubsub::SubscriptionSet& b) const;

  /// Batch API: prepare(a) then score(b) equals operator()(a, b) bit for
  /// bit, amortizing a's side of the merge across many candidates. The
  /// stamped state stays valid until the next prepare() on this instance;
  /// `a` must outlive the score() calls.
  ///
  /// When a cache is attached (set_cache), both SetIds are valid, and the
  /// rates are skewed (not all ones), score runs the fingerprint prefilter
  /// *first* — a proven-disjoint pair is exactly 0.0 for a few ns, cheaper
  /// than any probe, so zero-score pairs never consume memo slots — then
  /// consults the memo: a hit returns the stored double (the exact value a
  /// previous merge produced) and skips the merge entirely; a miss
  /// computes the score as before and queues its memoization on the lane.
  /// With uniform (all-ones) rates the memo is bypassed entirely: the
  /// stamped count merge costs ~tens of ns, cheaper than probing a
  /// figure-scale table, so there is nothing worth memoizing (the skewed
  /// path's union sum is what the memo actually amortizes). Passing
  /// kInvalidSetId (the default) bypasses the cache, so un-interned callers
  /// behave exactly as they always have.
  void prepare(const pubsub::SubscriptionSet& a,
               pubsub::SetId a_id = pubsub::kInvalidSetId) const;
  [[nodiscard]] double score(const pubsub::SubscriptionSet& b,
                             pubsub::SetId b_id = pubsub::kInvalidSetId) const;

  // --- core::BatchScorer's passes over a candidate pool ------------------
  // Together they equal score() per candidate in pool order: the same score
  // bits, prefilter counts and memo traffic.

  /// The prefilter over a pool's fingerprint column in one SIMD
  /// disjoint_mask pass: rejected[i] = 1 when fingerprints[i] proves the
  /// candidate disjoint from the prepared set (never with the prefilter
  /// off). Counts n calls and the rejects, as n score() calls would.
  void prefilter_batch(const std::uint64_t* fingerprints, std::size_t n,
                       std::uint8_t* rejected) const;

  /// The memo probe of the pair (prepared set, b_id) on this instance's
  /// lane, counted there; memo_engaged() and a valid b_id are required.
  [[nodiscard]] bool memo_lookup(pubsub::SetId b_id, double& value) const {
    return cache_->lookup(prepared_id_, b_id, value, lane_);
  }
  /// Queue the memoization of (prepared set, b_id) on the lane.
  void memo_insert(pubsub::SetId b_id, double value) const {
    cache_->defer_insert(prepared_id_, b_id, value, lane_);
  }

  /// Exact Eq. 1 against the prepared set for a candidate the prefilter
  /// passed, memo aside: the stamped count under uniform rates, the
  /// stamped shared sum over weighted_union under skewed ones.
  [[nodiscard]] double score_merge(const pubsub::SubscriptionSet& b) const;

  /// Skewed rates, one ascending pass over b: returns the shared rate sum,
  /// added in b's order exactly as score() adds it, and writes b's topics
  /// that the prepared set lacks to `rest` followed by kTopicSentinel
  /// (`rest` holds b.size() + 1 entries). `rest_size` receives |b \ a|.
  [[nodiscard]] double split_shared(const pubsub::SubscriptionSet& b,
                                    ids::TopicIndex* rest,
                                    std::size_t& rest_size) const;

  /// Skewed rates: sums[k] = Σ rate(t) over the union of the prepared set
  /// and rests[k], for 1 to 4 lists split_shared wrote (each span excludes
  /// its sentinel). The merges run interleaved in one loop, each its own
  /// left fold in ascending topic order: bit for bit weighted_union of the
  /// prepared set and the candidate.
  void union_sums(std::span<const std::span<const ids::TopicIndex>> rests,
                  double* sums) const;

  /// True when score() would consult the memo for valid candidate ids:
  /// skewed rates, a cache attached and enabled, and a prepared() set with
  /// a valid SetId. Lets the batch kernel decide once per pool whether to
  /// probe at all.
  [[nodiscard]] bool memo_engaged() const {
    return !all_ones_ && cache_ != nullptr && cache_->enabled() &&
           prepared_id_ != pubsub::kInvalidSetId;
  }

  /// True when every rate is 1.0: score() then never consults a memo.
  [[nodiscard]] bool uniform_rates() const { return all_ones_; }

  /// Fingerprint/SetId of the set most recently passed to prepare().
  [[nodiscard]] std::uint64_t prepared_fingerprint() const {
    return prepared_fp_;
  }
  [[nodiscard]] pubsub::SetId prepared_set_id() const { return prepared_id_; }

  /// Attach a memo (not owned; nullptr detaches). Its keys must come from
  /// one SubscriptionRegistry, whose ids never change meaning. Lookups read
  /// the table as of its last commit_lanes() and misses queue their
  /// inserts on `lane`, so instances on distinct lanes may score
  /// concurrently; a hit on a score this instance computed needs a
  /// commit_lanes() in between (the wave barrier, in Vitis).
  void set_cache(PairUtilityCache* cache, std::size_t lane = 0) {
    cache_ = cache;
    lane_ = lane;
  }
  [[nodiscard]] PairUtilityCache* cache() const { return cache_; }

  /// Test hook: with the prefilter off, every pair pays the exact merge.
  void set_prefilter_enabled(bool enabled) { prefilter_enabled_ = enabled; }
  [[nodiscard]] bool prefilter_enabled() const { return prefilter_enabled_; }

  [[nodiscard]] const PrefilterStats& prefilter_stats() const {
    return prefilter_stats_;
  }
  void reset_prefilter_stats() const { prefilter_stats_ = {}; }

  [[nodiscard]] std::span<const double> rates() const { return rates_; }

 private:
  [[nodiscard]] double score_fresh(const pubsub::SubscriptionSet& b) const;

  std::vector<double> rates_;
  bool all_ones_ = true;  // every rate == 1.0: Jaccard counts are exact
  bool prefilter_enabled_ = true;
  PairUtilityCache* cache_ = nullptr;  // not owned
  std::size_t lane_ = 0;

  // prepare()/score() scratch; mutable because scoring is logically const.
  // One instance per concurrent scorer (Vitis keeps one per wave worker).
  mutable std::vector<std::uint32_t> stamp_;  // indexed by TopicIndex
  mutable std::uint32_t epoch_ = 0;
  // Skewed rates: the prepared topics, ascending, then kTopicSentinel.
  mutable std::vector<ids::TopicIndex> prepared_topics_;
  mutable const pubsub::SubscriptionSet* prepared_ = nullptr;
  mutable std::uint64_t prepared_fp_ = 0;
  mutable std::size_t prepared_size_ = 0;
  mutable pubsub::SetId prepared_id_ = pubsub::kInvalidSetId;
  mutable PrefilterStats prefilter_stats_;
};

}  // namespace vitis::core
