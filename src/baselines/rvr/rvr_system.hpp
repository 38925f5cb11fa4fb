// RVR — the structured rendezvous-routing baseline (Scribe/Bayeux
// equivalent, §IV). Nodes keep a fixed-degree Symphony overlay (ring links
// plus small-world links only — selection is oblivious to subscriptions).
// Every subscriber periodically routes toward hash(t) and subscribes along
// the path, forming a per-topic multicast tree rooted at the rendezvous
// node; publishing routes the event to the root and floods the tree.
#pragma once

#include <string>
#include <vector>

#include "baselines/rvr/multicast_tree.hpp"
#include "core/overlay_system.hpp"

namespace vitis::baselines::rvr {

struct RvrConfig {
  core::OverlayConfig base;

  /// Subscribers re-route toward the rendezvous every this many cycles
  /// (staggered per (node, topic) so the load spreads evenly). Scribe-style
  /// trees are heartbeat-maintained, not rebuilt per gossip round.
  std::size_t tree_refresh_interval = 4;

  [[nodiscard]] std::uint32_t tree_ttl() const {
    return static_cast<std::uint32_t>(2 * tree_refresh_interval + 1);
  }
};

class RvrSystem final : public core::OverlaySystem {
 public:
  RvrSystem(RvrConfig config, pubsub::SubscriptionTable subscriptions,
            std::uint64_t seed, bool start_online = true);

  [[nodiscard]] std::string name() const override { return "RVR"; }

  pubsub::DisseminationReport publish(ids::TopicIndex topic,
                                      ids::NodeIndex publisher) override;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const RvrConfig& config() const { return config_; }
  [[nodiscard]] bool is_tree_member(ids::NodeIndex node,
                                    ids::TopicIndex topic) const {
    return trees_[node].is_relay_for(topic);
  }
  [[nodiscard]] std::vector<ids::NodeIndex> tree_links(
      ids::NodeIndex node, ids::TopicIndex topic) const {
    std::vector<ids::NodeIndex> peers;
    for (const core::RelayTable::Link& link : trees_[node].links(topic)) {
      peers.push_back(link.peer);
    }
    return peers;
  }
  [[nodiscard]] std::size_t tree_size_of(ids::TopicIndex topic) const {
    return tree_size(trees_, topic);
  }

 protected:
  void select_neighbors(ids::NodeIndex self,
                        std::span<const gossip::Descriptor> candidates,
                        overlay::RoutingTable& rt, sim::Rng& rng) override;
  void maintenance_extra() override;
  void on_leave(ids::NodeIndex node) override { trees_[node].clear(); }

  /// kRelayLinks gauge: multicast-tree links held by alive nodes.
  [[nodiscard]] std::size_t relay_link_count() const override {
    std::size_t total = 0;
    for (std::size_t i = 0; i < trees_.size(); ++i) {
      if (is_alive(static_cast<ids::NodeIndex>(i))) {
        total += trees_[i].link_count();
      }
    }
    return total;
  }

 private:
  struct TreeHops;  // the dissemination Net (defined in the .cpp)

  void refresh_subscription(ids::NodeIndex node, ids::TopicIndex topic);

  RvrConfig config_;
  std::vector<core::RelayTable> trees_;
};

}  // namespace vitis::baselines::rvr
