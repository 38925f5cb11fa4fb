// RVR — the structured rendezvous-routing baseline (Scribe/Bayeux
// equivalent, §IV). Nodes keep a fixed-degree Symphony overlay (ring links
// plus small-world links only — selection is oblivious to subscriptions).
// Every subscriber periodically routes toward hash(t) and subscribes along
// the path, forming a per-topic multicast tree rooted at the rendezvous
// node; publishing routes the event to the root and floods the tree. The
// trees are the host's relay tables, built by the relay refresh Vitis'
// relay paths use.
#pragma once

#include <string>

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
  using OverlaySystem::relay_table;

 protected:
  void select_neighbors(ids::NodeIndex self,
                        std::span<const gossip::Descriptor> candidates,
                        overlay::RoutingTable& rt, sim::Rng& rng,
                        std::size_t worker) override;
  // Requests the staggered resubscriptions of this cycle.
  void maintenance_extra() override;

 private:
  struct TreeHops;  // the dissemination Net (defined in the .cpp)

  RvrConfig config_;
};

}  // namespace vitis::baselines::rvr
