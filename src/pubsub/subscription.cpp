#include "pubsub/subscription.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace vitis::pubsub {

SubscriptionSet::SubscriptionSet(std::vector<ids::TopicIndex> topics)
    : topics_(std::move(topics)) {
  std::sort(topics_.begin(), topics_.end());
  topics_.erase(std::unique(topics_.begin(), topics_.end()), topics_.end());
  for (const ids::TopicIndex topic : topics_) {
    fingerprint_ |= topic_fingerprint_bit(topic);
  }
}

bool SubscriptionSet::add(ids::TopicIndex topic) {
  const auto it = std::lower_bound(topics_.begin(), topics_.end(), topic);
  if (it != topics_.end() && *it == topic) return false;
  topics_.insert(it, topic);
  fingerprint_ |= topic_fingerprint_bit(topic);
  return true;
}

bool SubscriptionSet::remove(ids::TopicIndex topic) {
  const auto it = std::lower_bound(topics_.begin(), topics_.end(), topic);
  if (it == topics_.end() || *it != topic) return false;
  topics_.erase(it);
  // A removed topic may share its hashed bit with a survivor: recompute.
  fingerprint_ = 0;
  for (const ids::TopicIndex t : topics_) {
    fingerprint_ |= topic_fingerprint_bit(t);
  }
  return true;
}

bool SubscriptionSet::contains(ids::TopicIndex topic) const {
  return std::binary_search(topics_.begin(), topics_.end(), topic);
}

std::optional<std::size_t> SubscriptionSet::position(
    ids::TopicIndex topic) const {
  const auto it = std::lower_bound(topics_.begin(), topics_.end(), topic);
  if (it == topics_.end() || *it != topic) return std::nullopt;
  return static_cast<std::size_t>(it - topics_.begin());
}

std::size_t intersection_size(const SubscriptionSet& a,
                              const SubscriptionSet& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

std::size_t union_size(const SubscriptionSet& a, const SubscriptionSet& b) {
  return a.size() + b.size() - intersection_size(a, b);
}

double weighted_intersection(const SubscriptionSet& a,
                             const SubscriptionSet& b,
                             std::span<const double> weights) {
  double sum = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      VITIS_DCHECK(*ia < weights.size());
      sum += weights[*ia];
      ++ia;
      ++ib;
    }
  }
  return sum;
}

double weighted_union(const SubscriptionSet& a, const SubscriptionSet& b,
                      std::span<const double> weights) {
  double sum = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    ids::TopicIndex topic;
    if (ib == b.end() || (ia != a.end() && *ia < *ib)) {
      topic = *ia++;
    } else if (ia == a.end() || *ib < *ia) {
      topic = *ib++;
    } else {
      topic = *ia;
      ++ia;
      ++ib;
    }
    VITIS_DCHECK(topic < weights.size());
    sum += weights[topic];
  }
  return sum;
}

SubscriptionTable::SubscriptionTable(std::vector<SubscriptionSet> by_node,
                                     std::size_t topic_count)
    : by_node_(std::move(by_node)),
      subscribers_(topic_count),
      topic_count_(topic_count) {
  for (std::size_t node = 0; node < by_node_.size(); ++node) {
    for (const ids::TopicIndex topic : by_node_[node]) {
      VITIS_CHECK(topic < topic_count_);
      subscribers_[topic].push_back(static_cast<ids::NodeIndex>(node));
    }
  }
}

bool SubscriptionTable::subscribe(ids::NodeIndex node, ids::TopicIndex topic) {
  VITIS_CHECK(node < by_node_.size() && topic < topic_count_);
  if (!by_node_[node].add(topic)) return false;
  subscribers_[topic].push_back(node);
  return true;
}

bool SubscriptionTable::unsubscribe(ids::NodeIndex node,
                                    ids::TopicIndex topic) {
  VITIS_CHECK(node < by_node_.size() && topic < topic_count_);
  if (!by_node_[node].remove(topic)) return false;
  auto& subs = subscribers_[topic];
  subs.erase(std::find(subs.begin(), subs.end(), node));
  return true;
}

double SubscriptionTable::mean_subscriptions() const {
  if (by_node_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& subs : by_node_) total += subs.size();
  return static_cast<double>(total) / static_cast<double>(by_node_.size());
}

}  // namespace vitis::pubsub
