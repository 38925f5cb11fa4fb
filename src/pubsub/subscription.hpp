// Subscription sets and the node/topic subscription table.
//
// A node's profile holds the set of topics it subscribes to (§III of the
// paper). Sets are sorted unique vectors: subscription counts are small
// (tens to low hundreds), where sorted-vector intersection beats bitsets
// and hash sets by a wide margin and keeps memory per node tiny.
//
// Every set additionally maintains a 64-bit *fingerprint*: the OR of one
// hashed bit per subscribed topic (a one-hash Bloom filter). Fingerprints
// are conservative by construction — disjoint fingerprints imply truly
// disjoint sets — so the gossip layer's utility ranking can reject
// zero-overlap candidate pairs with a single popcount-free AND before
// paying for the exact linear merge (see core::UtilityFunction).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ids/hash.hpp"
#include "ids/id.hpp"

namespace vitis::pubsub {

/// The fingerprint bit of one topic: a single hashed bit in a 64-bit
/// signature. Domain-separated from ring-id hashing.
[[nodiscard]] constexpr std::uint64_t topic_fingerprint_bit(
    ids::TopicIndex topic) noexcept {
  return std::uint64_t{1}
         << (ids::mix64(0x73756273665f7631ULL ^
                        static_cast<std::uint64_t>(topic)) &
             63U);
}

class SubscriptionSet {
 public:
  SubscriptionSet() = default;
  /// Takes topics in any order, deduplicates and sorts.
  explicit SubscriptionSet(std::vector<ids::TopicIndex> topics);

  /// Subscribe; no-op if already subscribed. Returns true if added.
  bool add(ids::TopicIndex topic);
  /// Unsubscribe; returns true if the topic was present.
  bool remove(ids::TopicIndex topic);

  [[nodiscard]] bool contains(ids::TopicIndex topic) const;
  /// Index of `topic` in topics(), if subscribed: the topic's slot in
  /// per-topic state kept aligned with the set (a node's gateway
  /// proposals).
  [[nodiscard]] std::optional<std::size_t> position(
      ids::TopicIndex topic) const;
  [[nodiscard]] std::size_t size() const { return topics_.size(); }
  [[nodiscard]] bool empty() const { return topics_.empty(); }
  void clear() {
    topics_.clear();
    fingerprint_ = 0;
  }

  /// OR of topic_fingerprint_bit over the subscribed topics. Zero AND of
  /// two fingerprints proves the sets share no topic.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Sorted ascending view of the subscribed topics.
  [[nodiscard]] std::span<const ids::TopicIndex> topics() const {
    return topics_;
  }

  [[nodiscard]] auto begin() const { return topics_.begin(); }
  [[nodiscard]] auto end() const { return topics_.end(); }

  friend bool operator==(const SubscriptionSet& a, const SubscriptionSet& b) {
    return a.topics_ == b.topics_;
  }

 private:
  std::vector<ids::TopicIndex> topics_;  // sorted, unique
  std::uint64_t fingerprint_ = 0;
};

/// True when the fingerprints prove a and b are disjoint. The converse does
/// not hold: overlapping fingerprints say nothing (hash collisions).
[[nodiscard]] constexpr bool fingerprints_disjoint(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  return (a & b) == 0;
}

/// |a ∩ b| via linear merge.
[[nodiscard]] std::size_t intersection_size(const SubscriptionSet& a,
                                            const SubscriptionSet& b);

/// |a ∪ b| = |a| + |b| - |a ∩ b|.
[[nodiscard]] std::size_t union_size(const SubscriptionSet& a,
                                     const SubscriptionSet& b);

/// Sum of per-topic weights over a ∩ b; `weights` is indexed by TopicIndex.
[[nodiscard]] double weighted_intersection(const SubscriptionSet& a,
                                           const SubscriptionSet& b,
                                           std::span<const double> weights);

/// Sum of per-topic weights over a ∪ b.
[[nodiscard]] double weighted_union(const SubscriptionSet& a,
                                    const SubscriptionSet& b,
                                    std::span<const double> weights);

/// The full subscription relation of a network: per-node sets plus the
/// reverse index (subscribers of each topic), built once per workload.
class SubscriptionTable {
 public:
  SubscriptionTable() = default;
  SubscriptionTable(std::vector<SubscriptionSet> by_node,
                    std::size_t topic_count);

  [[nodiscard]] std::size_t node_count() const { return by_node_.size(); }
  [[nodiscard]] std::size_t topic_count() const { return topic_count_; }

  [[nodiscard]] const SubscriptionSet& of(ids::NodeIndex node) const {
    return by_node_[node];
  }

  [[nodiscard]] std::span<const ids::NodeIndex> subscribers(
      ids::TopicIndex topic) const {
    return subscribers_[topic];
  }

  [[nodiscard]] bool subscribes(ids::NodeIndex node,
                                ids::TopicIndex topic) const {
    return by_node_[node].contains(topic);
  }

  /// Dynamic subscription change ("subscribing to or unsubscribing from a
  /// topic is done by adding or removing the topic id to/from the
  /// profile", §III). Keeps the reverse index consistent. Returns false
  /// when the relation already held.
  bool subscribe(ids::NodeIndex node, ids::TopicIndex topic);
  bool unsubscribe(ids::NodeIndex node, ids::TopicIndex topic);

  /// Mean subscriptions per node.
  [[nodiscard]] double mean_subscriptions() const;

 private:
  std::vector<SubscriptionSet> by_node_;
  std::vector<std::vector<ids::NodeIndex>> subscribers_;
  std::size_t topic_count_ = 0;
};

/// One planned publication: (topic, publishing node).
using Publication = std::pair<ids::TopicIndex, ids::NodeIndex>;

}  // namespace vitis::pubsub
