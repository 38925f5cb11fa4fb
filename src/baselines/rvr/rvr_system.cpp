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
    for (const auto& link : rvr.relay_table(node).links(topic)) {
      if (rvr.is_alive(link.peer)) fn(link.peer);
    }
  }
};

RvrSystem::RvrSystem(RvrConfig config, pubsub::SubscriptionTable subscriptions,
                     std::uint64_t seed, bool start_online)
    : OverlaySystem(config.base, std::move(subscriptions), seed),
      config_(config) {
  VITIS_CHECK(config_.tree_refresh_interval > 0);
  // A Scribe JOIN gets no retransmit: the baselines stay fragile.
  add_relay_refresh(config_.tree_ttl(), 0);
  start(start_online);
}

// Subscription-oblivious Symphony selection: ring links first, every
// remaining slot a small-world link at a random harmonic distance.
void RvrSystem::select_neighbors(ids::NodeIndex self,
                                 std::span<const gossip::Descriptor> candidates,
                                 overlay::RoutingTable& rt, sim::Rng& rng,
                                 std::size_t worker) {
  const support::ScopedPhase phase(&profiler_mut(), support::Phase::kRanking,
                                   worker);
  const ids::RingId self_id = ring_id(self);
  Selection& selection = select_ring_links(self, candidates, worker);
  while (selection.size() < base_config().routing_table_size &&
         !selection.unselected().empty()) {
    const ids::RingId target = overlay::random_sw_target(
        self_id, std::max<std::size_t>(alive_count(), 2), rng);
    const auto sw =
        overlay::closest_to_target(selection.unselected(), target, self);
    if (!sw.has_value()) break;
    selection.take(*sw, overlay::LinkKind::kSmallWorld);
  }
  selection.install(rt);
}

void RvrSystem::maintenance_extra() {
  // Relay work but no walk or table visit: timed without a call.
  const std::int64_t start = support::monotonic_ns();
  // Staggered Scribe-style resubscription: each (node, topic) pair routes
  // toward the rendezvous once every tree_refresh_interval cycles, and the
  // host's relay refresh grafts the route onto the topic's tree.
  const std::size_t interval = config_.tree_refresh_interval;
  const std::size_t now = engine().cycle();
  for (const ids::NodeIndex node : engine().active_nodes()) {
    for (const ids::TopicIndex topic : subscriptions().of(node).topics()) {
      const std::uint64_t stagger =
          ids::mix64((static_cast<std::uint64_t>(node) << 32) | topic);
      if ((now + stagger) % interval == 0) request_relay(node, topic);
    }
  }
  profiler_mut().add(
      support::Phase::kRelay,
      static_cast<std::uint64_t>(support::monotonic_ns() - start), 0);
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
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    // A dropped route hop kills the rest of the path; the lost message is
    // never counted.
    if (!hops.admit(route.path[i - 1], route.path[i])) break;
    // Route nodes that are also tree members may disseminate early (they
    // hold tree links); harmless and closer to real Scribe behavior.
    flood.route_hop(hops, route.path[i - 1], route.path[i]);
  }
  // A publisher that is itself the rendezvous node roots the flood. One
  // whose route was cut before the rendezvous delivers nothing beyond the
  // route nodes it reached.
  if (route.owner == publisher) {
    flood.seed(publisher);
  }

  // ...then flood the multicast tree from the root outward.
  flood.flood(hops);
  return flood.finish();
}

}  // namespace vitis::baselines::rvr
