// Batched utility scoring over a contiguous candidate pool.
//
// Ranking (Vitis' Algorithm 4 and the OPT coverage selector) evaluates one
// prepared set against many candidates. The per-candidate path chases one
// subscription-set pointer per fingerprint and decides prefilter, memo
// probe, and merge one candidate at a time. BatchScorer instead lays the
// pool out as structure-of-arrays columns (fingerprints, SetIds; the same
// layout discipline as the host's per-node columns) so the three
// integer-exact decisions run as SIMD passes over the whole pool
// (support/simd.hpp):
//
//   1. one disjoint_mask pass computes every prefilter verdict (4
//      fingerprints per AVX2 step);
//   2. one mix64_batch pass hashes every memo-probe key and issues the
//      prefetches (PairUtilityCache::prefetch_batch);
//   3. the scoring loop then visits candidates in pool order, handing each
//      precomputed verdict to UtilityFunction::score_prefiltered — the
//      merges themselves (and all floating-point) stay scalar, so scores,
//      counters, and memo history are bit-identical to the per-candidate
//      path on every ISA.
//
// All buffers are members: steady-state ranking performs zero allocations
// (tests/test_alloc_free.cpp audits this through gossip_step and directly).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/utility.hpp"
#include "ids/id.hpp"
#include "pubsub/subscription.hpp"
#include "pubsub/subscription_registry.hpp"
#include "support/check.hpp"

namespace vitis::core {

class BatchScorer {
 public:
  /// Drop the pool (keeps capacity — clear/add/score cycles are
  /// allocation-free once the high-water pool size is reached).
  /// Inline: pool build runs once per ranking, inside the gossip hot path.
  void clear() {
    nodes_.clear();
    sets_.clear();
    fingerprints_.clear();
    ids_.clear();
  }

  /// Append one candidate. `fingerprint`/`set_id` must be the live values
  /// of `*set` (the DCHECK pins the fingerprint to the set).
  void add(ids::NodeIndex node, const pubsub::SubscriptionSet* set,
           std::uint64_t fingerprint, pubsub::SetId set_id) {
    VITIS_DCHECK(set != nullptr);
    VITIS_DCHECK(fingerprint == set->fingerprint());
    nodes_.push_back(node);
    sets_.push_back(set);
    fingerprints_.push_back(fingerprint);
    ids_.push_back(set_id);
  }

  /// Score every pooled candidate against utility.prepare()'s set, writing
  /// scores() in pool order. Equivalent to calling utility.score() per
  /// candidate in the same order — bit-identical scores, prefilter stats,
  /// and memo traffic — with the prefilter and probe-key work batched.
  void score_all(const UtilityFunction& utility);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::span<const ids::NodeIndex> nodes() const {
    return nodes_;
  }
  [[nodiscard]] std::span<const double> scores() const { return scores_; }
  /// Writable view for post-passes over the raw scores (the proximity
  /// discount rescales in place before ranking).
  [[nodiscard]] std::span<double> mutable_scores() { return scores_; }

 private:
  // SoA pool columns, indexed by insertion order.
  std::vector<ids::NodeIndex> nodes_;
  std::vector<const pubsub::SubscriptionSet*> sets_;
  std::vector<std::uint64_t> fingerprints_;
  std::vector<pubsub::SetId> ids_;
  // score_all scratch.
  std::vector<std::uint8_t> rejects_;       // SIMD prefilter verdicts
  std::vector<std::uint64_t> key_scratch_;  // memo-probe hash lane
  std::vector<double> scores_;
};

/// Top-k selection over a batched score vector: fills `ranked` with
/// (score, pool index) pairs for the k best candidates, sorted best-first.
/// Ties break by mix64(tie_salt ^ nodes[index]) ascending — a per-node
/// pseudo-random strict total order (mix64 is a bijection over the unique
/// node indices), so the result is independent of pool insertion order and
/// of whether nth_element or a full sort ran. O(n + k log k).
void rank_top_k(std::span<const double> scores,
                std::span<const ids::NodeIndex> nodes, std::uint64_t tie_salt,
                std::size_t k,
                std::vector<std::pair<double, std::size_t>>& ranked);

}  // namespace vitis::core
