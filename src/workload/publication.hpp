// Publication-rate models and event schedules.
//
// §IV-D: "We employ a power-law function, with a parameter α, to define the
// distribution of events rate on different topics" — α near 0.3 behaves
// like uniform, α = 3 concentrates almost all events on one topic. Rates
// feed both Eq. 1 (friend selection weights) and the sampling of which
// topic each published event lands on.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ids/id.hpp"
#include "pubsub/subscription.hpp"
#include "sim/rng.hpp"

namespace vitis::workload {

class PublicationRates {
 public:
  /// Every topic publishes at the same rate.
  [[nodiscard]] static PublicationRates uniform(std::size_t topic_count);

  /// Power law over ranks: rate(rank) ∝ (rank + 1)^-alpha, with ranks
  /// assigned to topics by a deterministic pseudo-random permutation (so
  /// "hot" topics are spread uniformly over the id space).
  [[nodiscard]] static PublicationRates power_law(std::size_t topic_count,
                                                  double alpha);

  [[nodiscard]] std::span<const double> weights() const { return rates_; }
  [[nodiscard]] double rate(ids::TopicIndex topic) const {
    return rates_[topic];
  }
  [[nodiscard]] std::size_t topic_count() const { return rates_.size(); }

  /// Sample a topic with probability proportional to its rate.
  [[nodiscard]] ids::TopicIndex sample(sim::Rng& rng) const;

 private:
  explicit PublicationRates(std::vector<double> rates);

  std::vector<double> rates_;
  std::vector<double> cumulative_;  // prefix sums for O(log T) sampling
};

/// Build a schedule of `count` publications: topics sampled by rate,
/// publishers drawn uniformly from each topic's subscribers for which
/// `eligible` holds (default: everyone). Topics whose subscribers are all
/// ineligible are re-drawn.
[[nodiscard]] std::vector<pubsub::Publication> make_schedule(
    const pubsub::SubscriptionTable& subscriptions,
    const PublicationRates& rates, std::size_t count, sim::Rng& rng,
    const std::function<bool(ids::NodeIndex)>& eligible = nullptr);

}  // namespace vitis::workload
