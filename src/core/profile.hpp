// Node profiles (§III): the subscription set plus, piggybacked per
// subscribed topic, the node's current gateway proposal (Algorithm 5's
// (GW, parent, hops) triple). Profiles are what nodes exchange as heartbeat
// messages every gossip period.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ids/id.hpp"
#include "pubsub/subscription.hpp"
#include "pubsub/subscription_registry.hpp"
#include "support/check.hpp"

namespace vitis::core {

struct GatewayProposal {
  ids::NodeIndex gateway = ids::kInvalidNode;
  ids::RingId gateway_id = 0;
  ids::NodeIndex parent = ids::kInvalidNode;  // who proposed this gateway
  std::uint32_t hops = 0;                     // distance to gateway in hops

  friend bool operator==(const GatewayProposal&,
                         const GatewayProposal&) = default;
};

class Profile {
 public:
  Profile() = default;
  explicit Profile(pubsub::SubscriptionSet subscriptions);

  [[nodiscard]] const pubsub::SubscriptionSet& subscriptions() const {
    return subscriptions_;
  }

  [[nodiscard]] bool subscribes(ids::TopicIndex topic) const {
    return subscriptions_.contains(topic);
  }

  /// Proposal for one subscribed topic; nullopt when `topic` is not in the
  /// subscription set.
  [[nodiscard]] std::optional<GatewayProposal> proposal(
      ids::TopicIndex topic) const;

  /// Store the proposal for a subscribed topic (checked).
  void set_proposal(ids::TopicIndex topic, const GatewayProposal& proposal);

  /// Dynamic subscription change (§III): inserts the topic with a fresh
  /// self-proposal / erases it along with its proposal. Returns false when
  /// the subscription state already matched.
  bool add_topic(ids::TopicIndex topic, ids::NodeIndex self,
                 ids::RingId self_id);
  bool remove_topic(ids::TopicIndex topic);

  /// Reset all proposals to the self-proposal state (used on join/leave:
  /// "each node initially proposes itself as gateway").
  void reset_proposals(ids::NodeIndex self, ids::RingId self_id);

  /// Position of `topic` inside the sorted subscription set, if subscribed.
  [[nodiscard]] std::optional<std::size_t> topic_position(
      ids::TopicIndex topic) const;

  /// Proposal at a known position (bounds-checked in debug builds).
  [[nodiscard]] const GatewayProposal& proposal_at(std::size_t position) const {
    VITIS_DCHECK(position < proposals_.size());
    return proposals_[position];
  }

  /// Store the proposal at a known position (bounds-checked in debug
  /// builds).
  void set_proposal_at(std::size_t position, const GatewayProposal& proposal) {
    VITIS_DCHECK(position < proposals_.size());
    proposals_[position] = proposal;
  }

  /// Canonical id of the subscription set in the owning system's
  /// SubscriptionRegistry. kInvalidSetId until interned; the owner must
  /// refresh it after add_topic/remove_topic (the profile cannot — it has
  /// no registry reference by design).
  [[nodiscard]] pubsub::SetId set_id() const { return set_id_; }
  void set_set_id(pubsub::SetId id) { set_id_ = id; }

  /// Deterministic logical footprint of the heap-side state in bytes (live
  /// sizes only; the Profile object itself is accounted by its owner).
  [[nodiscard]] std::size_t memory_bytes() const {
    return subscriptions_.size() * sizeof(ids::TopicIndex) +
           proposals_.size() * sizeof(GatewayProposal);
  }

 private:
  pubsub::SubscriptionSet subscriptions_;
  std::vector<GatewayProposal> proposals_;  // aligned with subscriptions_
  pubsub::SetId set_id_ = pubsub::kInvalidSetId;
};

}  // namespace vitis::core
