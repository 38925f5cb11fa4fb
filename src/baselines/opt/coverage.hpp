// SpiderCast-like k-coverage neighbor selection for the OPT baseline
// (§IV: "an unstructured solution that constructs an Overlay Per Topic,
// while minimizing node degrees by exploiting the subscription
// correlations, similar to SpiderCast").
//
// A node wants at least `coverage_target` neighbors sharing each of its
// topics. Selection is greedy: repeatedly pick the candidate that covers
// the most still-under-covered topics (one link can cover many topics at
// once when subscriptions correlate — SpiderCast's core idea). Remaining
// slots are filled by interest similarity.
//
// Candidates' subscription sets are read live from the system's table; one
// SIMD fingerprint pass over the pool proves most disjoint pairs empty
// before any merge.
#pragma once

#include <span>
#include <vector>

#include "gossip/descriptor.hpp"
#include "overlay/routing_table.hpp"
#include "pubsub/subscription.hpp"

namespace vitis::baselines::opt {

// Cache-line aligned: OPT keeps one selector per T-Man wave worker, side by
// side, and selection rewrites the scratch columns' headers.
class alignas(64) CoverageSelector {
 public:
  /// `subscriptions_of(node)` resolves a candidate's subscription set.
  CoverageSelector(std::size_t coverage_target,
                   const pubsub::SubscriptionTable& subscriptions);

  /// Bounded-degree selection: rebuild a table of at most `capacity`
  /// entries from the candidate buffer.
  [[nodiscard]] std::vector<overlay::RoutingEntry> select_bounded(
      const pubsub::SubscriptionSet& my_subs,
      std::span<const gossip::Descriptor> candidates,
      std::size_t capacity) const;

  /// Unbounded-degree selection: given the coverage already provided by the
  /// current table (per-topic counts aligned with `my_subs`), return the
  /// additional candidates needed to reach the coverage target. `coverage`
  /// is updated in place for the chosen candidates.
  [[nodiscard]] std::vector<overlay::RoutingEntry> select_additional(
      const pubsub::SubscriptionSet& my_subs,
      std::span<const gossip::Descriptor> candidates,
      const overlay::RoutingTable& current,
      std::vector<std::uint8_t>& coverage) const;

  [[nodiscard]] std::size_t coverage_target() const { return target_; }

 private:
  /// Positions (into my_subs) of the topics shared with `other`.
  /// `disjoint` is the candidate's precomputed fingerprint-prefilter
  /// verdict (one SIMD disjoint_mask pass over the pool, see
  /// prefilter_pool); it must equal fingerprints_disjoint of the two live
  /// sets, and short-circuits the merge.
  [[nodiscard]] std::vector<std::uint32_t> shared_positions(
      const pubsub::SubscriptionSet& my_subs,
      const pubsub::SubscriptionSet& other, bool disjoint) const;

  /// Fill rejects_ with the prefilter verdict of every candidate against
  /// `my_fingerprint`, streaming the candidates' live subscription
  /// fingerprints through the pool columns (support::simd::disjoint_mask).
  void prefilter_pool(std::uint64_t my_fingerprint,
                      std::span<const gossip::Descriptor> candidates) const;

  std::size_t target_;
  const pubsub::SubscriptionTable* subscriptions_;
  // prefilter_pool columns; mutable scratch because selection is logically
  // const. One selector per T-Man wave worker, so no two threads share it.
  mutable std::vector<std::uint64_t> pool_fingerprints_;
  mutable std::vector<std::uint8_t> rejects_;
};

}  // namespace vitis::baselines::opt
