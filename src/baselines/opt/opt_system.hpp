// OPT — the unstructured overlay-per-topic baseline (SpiderCast-like,
// §IV). Links are chosen purely by subscription correlation (k-coverage);
// events flood the per-topic subgraph, so subscribers in components
// disconnected from the publisher miss them — which is exactly the hit-
// ratio degradation Fig. 10(a) reports for bounded degrees. The unbounded
// variant keeps adding links until every topic is k-covered, reproducing
// the heavy-tailed degree distribution of Fig. 11.
#pragma once

#include <string>
#include <vector>

#include "baselines/opt/coverage.hpp"
#include "core/overlay_system.hpp"

namespace vitis::baselines::opt {

struct OptConfig {
  core::OverlayConfig base;

  /// Minimum neighbors wanted per subscribed topic (SpiderCast k).
  std::size_t coverage_target = 2;

  /// Unbounded variant: the degree bound is lifted (routing tables grow to
  /// whatever coverage demands, Fig. 11).
  bool unbounded = false;
};

class OptSystem final : public core::OverlaySystem {
 public:
  OptSystem(OptConfig config, pubsub::SubscriptionTable subscriptions,
            std::uint64_t seed, bool start_online = true);

  [[nodiscard]] std::string name() const override {
    return config_.unbounded ? "OPT-unbounded" : "OPT";
  }

  pubsub::DisseminationReport publish(ids::TopicIndex topic,
                                      ids::NodeIndex publisher) override;

  [[nodiscard]] const OptConfig& config() const { return config_; }

  /// Out-degree of a node (its routing-table size), for Fig. 11.
  [[nodiscard]] std::size_t degree(ids::NodeIndex node) const {
    return routing_table(node).size();
  }

 protected:
  void select_neighbors(ids::NodeIndex self,
                        std::span<const gossip::Descriptor> candidates,
                        overlay::RoutingTable& rt, sim::Rng& rng,
                        std::size_t worker) override;
  void on_join(ids::NodeIndex node) override;
  void on_leave(ids::NodeIndex node) override;

 private:
  struct TopicHops;  // the dissemination Net (defined in the .cpp)

  static core::OverlayConfig effective_base(const OptConfig& config);

  OptConfig config_;
  std::vector<CoverageSelector> selectors_;  // one per T-Man wave worker
  /// Unbounded mode: per-node per-subscribed-topic coverage counters,
  /// aligned with each node's sorted subscription list.
  std::vector<std::vector<std::uint8_t>> coverage_;
};

}  // namespace vitis::baselines::opt
