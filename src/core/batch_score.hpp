// Batched utility scoring over a contiguous candidate pool.
//
// Ranking (Vitis' Algorithm 4) evaluates one prepared set against many
// candidates. BatchScorer lays the pool out as structure-of-arrays columns
// (fingerprints, SetIds; the same layout discipline as the host's per-node
// columns) and scores it in passes:
//
//   1. one SIMD disjoint_mask pass computes every prefilter verdict (4
//      fingerprints per AVX2 step; UtilityFunction::prefilter_batch);
//   2. uniform rates: each passing candidate pays the stamped count (8
//      gathered stamps per AVX2 step), in pool order; no memo exists;
//   3. skewed rates: one mix64_batch pass hashes the memo-probe keys and
//      prefetches their slots; then every passing candidate looks its pair
//      up on the worker's lane, in pool order, and a hit takes the cached
//      double. The misses, and candidates without a SetId, are merged four
//      at a time: each split into its shared rate sum and the topics the
//      prepared set lacks, then one loop interleaves four exact union
//      merges (UtilityFunction::union_sums), one accumulator each. Last,
//      the misses' memo inserts are queued on the lane in pool order.
//
// Every floating-point sum stays one left fold in ascending topic order,
// and the memo sees the same lookups and the same queued inserts as
// score() per candidate in pool order, so scores, counters, and memo
// history are bit-identical to the per-candidate path on every ISA.
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
  /// and memo traffic — with the prefilter, probe keys and skewed-rate
  /// merges batched.
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
  // A queued skewed-rate merge: its pool index, its shared rate sum, and
  // where split_shared wrote its topics outside the prepared set in rest_.
  struct Merge {
    std::size_t index;
    double shared;
    std::size_t rest_begin;
    std::size_t rest_size;
  };

  void score_skewed(const UtilityFunction& utility);

  // score_all scratch.
  std::vector<std::uint8_t> rejects_;       // SIMD prefilter verdicts
  std::vector<std::uint64_t> key_scratch_;  // memo-probe hash lane
  std::vector<double> scores_;
  std::vector<std::size_t> queued_;     // pool indices left to merge
  std::vector<Merge> merges_;           // the queued with a shared topic
  std::vector<ids::TopicIndex> rest_;   // sentinel-ended rest lists
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
