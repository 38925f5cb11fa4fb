// Hash-consing registry for subscription sets.
//
// Subscription correlation (the property Vitis exploits for clustering)
// means the network holds far fewer *distinct* subscription sets than
// nodes. The registry canonicalizes identical SubscriptionSets to a dense
// SetId, so higher layers can key per-pair work — most importantly the
// memoized Eq.-1 utility cache in core::PairUtilityCache — on a pair of
// 32-bit ids instead of re-merging the underlying topic vectors.
//
// Determinism: ids are assigned in first-intern order, which is itself
// deterministic per (seed, scale); interning an already-known set performs
// a hash probe plus one equality compare and never allocates.
//
// Contract: the registry is append-only. An id names one set for the
// registry's lifetime and is never reused, so per-pair results keyed on
// ids (the utility memo) never go stale when a node's subscriptions change.
#pragma once

#include <cstdint>
#include <vector>

#include "pubsub/subscription.hpp"

namespace vitis::pubsub {

/// Dense canonical id of a distinct subscription set.
using SetId = std::uint32_t;

/// "No interned set": callers without a registry pass it. Consumers must
/// treat it as uncacheable, never as an index.
inline constexpr SetId kInvalidSetId = 0xFFFFFFFFu;

class SubscriptionRegistry {
 public:
  SubscriptionRegistry();

  /// Canonical id of `set`: the id handed out the first time an equal set
  /// was interned. A new distinct set is copied into the registry (the one
  /// allocating path); re-interning is allocation-free.
  SetId intern(const SubscriptionSet& set);

  /// The canonical set behind an id (bounds-checked in debug builds).
  [[nodiscard]] const SubscriptionSet& set(SetId id) const;

  /// Number of distinct sets interned so far.
  [[nodiscard]] std::size_t size() const { return sets_.size(); }

  /// Total intern() calls (deterministic per (seed, scale)); together with
  /// size() this yields the interning hit rate reported in telemetry.
  [[nodiscard]] std::uint64_t intern_calls() const { return intern_calls_; }

 private:
  struct Bucket {
    std::uint64_t hash = 0;
    SetId id = kInvalidSetId;  // kInvalidSetId marks an empty bucket
  };

  [[nodiscard]] static std::uint64_t hash_topics(const SubscriptionSet& set);
  void grow();

  std::vector<SubscriptionSet> sets_;  // indexed by SetId
  std::vector<Bucket> buckets_;        // open addressing, power-of-two size
  std::uint64_t mask_ = 0;
  std::uint64_t intern_calls_ = 0;
};

}  // namespace vitis::pubsub
