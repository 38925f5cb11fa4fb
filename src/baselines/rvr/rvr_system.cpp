#include "baselines/rvr/rvr_system.hpp"

#include <algorithm>

#include "ids/hash.hpp"
#include "overlay/small_world.hpp"
#include "support/check.hpp"

namespace vitis::baselines::rvr {

// RVR forwards along the topic's live multicast-tree links, in link order.
struct RvrSystem::TreeHops : FaultAdmission {
  const RvrSystem& rvr;
  ids::TopicIndex topic;

  template <typename Fn>
  void for_each_next(ids::NodeIndex node, Fn&& fn) const {
    for (const auto& link : rvr.trees_[node].links(topic)) {
      if (rvr.is_alive(link.peer)) fn(link.peer);
    }
  }
};

RvrSystem::RvrSystem(RvrConfig config, pubsub::SubscriptionTable subscriptions,
                     std::uint64_t seed, bool start_online)
    : OverlaySystem(config.base, std::move(subscriptions), seed),
      config_(config),
      trees_(node_count()) {
  VITIS_CHECK(config_.tree_refresh_interval > 0);
  start(start_online);
}

// Subscription-oblivious Symphony selection: ring links first, every
// remaining slot a small-world link at a random harmonic distance.
void RvrSystem::select_neighbors(ids::NodeIndex self,
                                 std::span<const gossip::Descriptor> candidates,
                                 overlay::RoutingTable& rt, sim::Rng& rng) {
  const support::ScopedPhase phase(&profiler_mut(),
                                   support::Phase::kRanking);
  const ids::RingId self_id = ring_id(self);
  select_ring_links(self, candidates);
  while (selected_count() < base_config().routing_table_size &&
         !unselected().empty()) {
    const ids::RingId target = overlay::random_sw_target(
        self_id, std::max<std::size_t>(alive_count(), 2), rng);
    const auto sw = overlay::closest_to_target(unselected(), target, self);
    if (!sw.has_value()) break;
    take_candidate(*sw, overlay::LinkKind::kSmallWorld);
  }
  install_selection(rt);
}

void RvrSystem::maintenance_extra() {
  const support::ScopedPhase phase(&profiler_mut(), support::Phase::kRelay);
  // Tree refresh never flips liveness, so the activation list is stable.
  const auto alive = engine().active_nodes();
  for (const ids::NodeIndex node : alive) {
    trees_[node].age_and_expire(config_.tree_ttl());
  }
  // Staggered Scribe-style resubscription: each (node, topic) pair routes
  // toward the rendezvous once every tree_refresh_interval cycles.
  const std::size_t interval = config_.tree_refresh_interval;
  const std::size_t now = engine().cycle();
  for (const ids::NodeIndex node : alive) {
    for (const ids::TopicIndex topic :
         subscriptions().of(node).topics()) {
      const std::uint64_t stagger =
          ids::mix64((static_cast<std::uint64_t>(node) << 32) | topic);
      if ((now + stagger) % interval == 0) {
        refresh_subscription(node, topic);
      }
    }
  }
}

void RvrSystem::refresh_subscription(ids::NodeIndex node,
                                     ids::TopicIndex topic) {
  const overlay::LookupResult& route = lookup(node, ids::topic_ring_id(topic));
  if (!route.converged) return;
  std::span<const ids::NodeIndex> path = route.path;
  if (fault_active()) {
    // A Scribe JOIN walks the path hop by hop; a dropped hop truncates the
    // grafted branch there. No retransmit — the baselines stay fragile.
    std::size_t reached = 1;
    while (reached < path.size() &&
           fault_deliver(path[reached - 1], path[reached],
                         sim::MessageKind::kRelay)) {
      ++reached;
    }
    if (reached < 2) return;  // first hop lost: nothing grafted
    path = path.first(reached);
  }
  install_tree_path(path, topic, trees_);
}

pubsub::DisseminationReport RvrSystem::publish(ids::TopicIndex topic,
                                               ids::NodeIndex publisher) {
  const support::ScopedPhase phase(&profiler_mut(),
                                   support::Phase::kDelivery);
  pubsub::Dissemination& flood = begin_publish(topic, publisher);
  TreeHops hops{{*this}, *this, topic};

  // Scribe publish: route the event to the rendezvous node...
  const overlay::LookupResult& route =
      lookup(publisher, ids::topic_ring_id(topic));
  // RVR's analogue of Vitis' relay-path channel: the greedy rendezvous
  // route length per publication (serial publish path, lane 0).
  if (route.path.size() >= 2) {
    histograms_mut().record(support::Channel::kRelayPathLength,
                            route.path.size() - 1);
  }
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    // A dropped route hop kills the rest of the path; the lost message is
    // never counted.
    if (!hops.admit(route.path[i - 1], route.path[i])) break;
    // Route nodes that are also tree members may disseminate early (they
    // hold tree links); harmless and closer to real Scribe behavior.
    flood.route_hop<pubsub::QueuePolicy::kFifo>(hops, route.path[i - 1],
                                                route.path[i]);
  }
  // A publisher that is itself the rendezvous node roots the flood. One
  // whose route was cut before the rendezvous delivers nothing beyond the
  // route nodes it reached.
  if (route.owner == publisher) {
    flood.seed<pubsub::QueuePolicy::kFifo>(publisher);
  }

  // ...then flood the multicast tree from the root outward.
  flood.flood<pubsub::QueuePolicy::kFifo>(hops);
  return flood.finish();
}

}  // namespace vitis::baselines::rvr
