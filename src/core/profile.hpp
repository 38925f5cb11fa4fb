// Node profiles (§III): what a node gossips is its subscription set plus,
// piggybacked per subscribed topic, its current gateway proposal
// (Algorithm 5's (GW, parent, hops) triple). Profiles are what nodes
// exchange as heartbeat messages every gossip period.
//
// The subscription set has one copy, the owning system's
// pubsub::SubscriptionTable (see core::OverlaySystem); a Profile holds only
// the proposals, position i belonging to the i-th topic of that node's
// sorted set. The owner keeps the two aligned: it inserts a proposal at a
// new topic's position on subscribe and erases it on unsubscribe.
#pragma once

#include <cstdint>
#include <vector>

#include "ids/id.hpp"
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
  /// `topic_count` unset proposals (no gateway yet), one per subscribed
  /// topic.
  explicit Profile(std::size_t topic_count) : proposals_(topic_count) {}

  /// Number of proposals, equal to the node's subscription count.
  [[nodiscard]] std::size_t size() const { return proposals_.size(); }

  /// Proposal at a topic position (bounds-checked in debug builds).
  [[nodiscard]] const GatewayProposal& proposal_at(std::size_t position) const {
    VITIS_DCHECK(position < proposals_.size());
    return proposals_[position];
  }

  /// Store the proposal at a topic position (bounds-checked in debug
  /// builds).
  void set_proposal_at(std::size_t position, const GatewayProposal& proposal) {
    VITIS_DCHECK(position < proposals_.size());
    proposals_[position] = proposal;
  }

  /// Dynamic subscription change (§III): a proposal for the topic that now
  /// sits at `position` / drop the proposal of the topic that sat there.
  void insert_proposal(std::size_t position, const GatewayProposal& proposal) {
    VITIS_CHECK(position <= proposals_.size());
    proposals_.insert(
        proposals_.begin() + static_cast<std::ptrdiff_t>(position), proposal);
  }
  void erase_proposal(std::size_t position) {
    VITIS_CHECK(position < proposals_.size());
    proposals_.erase(proposals_.begin() +
                     static_cast<std::ptrdiff_t>(position));
  }

  /// Reset all proposals to the self-proposal state (used on join/leave:
  /// "each node initially proposes itself as gateway").
  void reset_proposals(ids::NodeIndex self, ids::RingId self_id) {
    for (auto& p : proposals_) {
      p = GatewayProposal{self, self_id, self, 0};
    }
  }

  /// Deterministic logical footprint of the heap-side state in bytes (live
  /// sizes only; the Profile object itself is accounted by its owner).
  [[nodiscard]] std::size_t memory_bytes() const {
    return proposals_.size() * sizeof(GatewayProposal);
  }

 private:
  std::vector<GatewayProposal> proposals_;  // by topic position
};

}  // namespace vitis::core
