#include "core/profile.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace vitis::core {

Profile::Profile(pubsub::SubscriptionSet subscriptions)
    : subscriptions_(std::move(subscriptions)),
      proposals_(subscriptions_.size()) {}

std::optional<std::size_t> Profile::topic_position(
    ids::TopicIndex topic) const {
  const auto topics = subscriptions_.topics();
  const auto it = std::lower_bound(topics.begin(), topics.end(), topic);
  if (it == topics.end() || *it != topic) return std::nullopt;
  return static_cast<std::size_t>(it - topics.begin());
}

std::optional<GatewayProposal> Profile::proposal(ids::TopicIndex topic) const {
  const auto position = topic_position(topic);
  if (!position.has_value()) return std::nullopt;
  return proposals_[*position];
}

void Profile::set_proposal(ids::TopicIndex topic,
                           const GatewayProposal& proposal) {
  const auto position = topic_position(topic);
  VITIS_CHECK(position.has_value());
  set_proposal_at(*position, proposal);
}

bool Profile::add_topic(ids::TopicIndex topic, ids::NodeIndex self,
                        ids::RingId self_id) {
  if (subscriptions_.contains(topic)) return false;
  const bool added = subscriptions_.add(topic);
  VITIS_CHECK(added);
  const auto position = topic_position(topic);
  VITIS_CHECK(position.has_value());
  proposals_.insert(
      proposals_.begin() + static_cast<std::ptrdiff_t>(*position),
      GatewayProposal{self, self_id, self, 0});
  return true;
}

bool Profile::remove_topic(ids::TopicIndex topic) {
  const auto position = topic_position(topic);
  if (!position.has_value()) return false;
  const bool removed = subscriptions_.remove(topic);
  VITIS_CHECK(removed);
  proposals_.erase(proposals_.begin() +
                   static_cast<std::ptrdiff_t>(*position));
  return true;
}

void Profile::reset_proposals(ids::NodeIndex self, ids::RingId self_id) {
  for (auto& p : proposals_) {
    p = GatewayProposal{self, self_id, self, 0};
  }
}

}  // namespace vitis::core
