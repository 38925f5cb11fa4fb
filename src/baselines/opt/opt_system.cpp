#include "baselines/opt/opt_system.hpp"

#include <limits>

#include "support/check.hpp"

namespace vitis::baselines::opt {

// Pure per-topic flooding: only links between subscribers carry the event;
// there is no relay mechanism (hence zero traffic overhead but no
// connectivity guarantee).
struct OptSystem::TopicHops : FaultAdmission {
  const OptSystem& opt;
  const pubsub::Dissemination& flood;

  template <typename Fn>
  void for_each_next(ids::NodeIndex node, Fn&& fn) const {
    for (const ids::NodeIndex y : opt.undirected(node)) {
      if (flood.interested(y)) fn(y);
    }
  }
};

core::OverlayConfig OptSystem::effective_base(const OptConfig& config) {
  core::OverlayConfig base = config.base;
  if (config.unbounded) {
    // Lift the degree bound; the host clamps table capacity to the network
    // size.
    base.routing_table_size = std::numeric_limits<std::size_t>::max();
  }
  return base;
}

OptSystem::OptSystem(OptConfig config, pubsub::SubscriptionTable subscriptions,
                     std::uint64_t seed, bool start_online)
    : OverlaySystem(effective_base(config), std::move(subscriptions), seed),
      config_(config),
      selectors_(engine().run_jobs(),
                 CoverageSelector(config.coverage_target,
                                  this->subscriptions())) {
  if (config_.unbounded) {
    coverage_.resize(node_count());
    for (std::size_t i = 0; i < node_count(); ++i) {
      coverage_[i].assign(
          this->subscriptions().of(static_cast<ids::NodeIndex>(i)).size(), 0);
    }
  }
  start(start_online);
}

void OptSystem::select_neighbors(ids::NodeIndex self,
                                 std::span<const gossip::Descriptor> candidates,
                                 overlay::RoutingTable& rt, sim::Rng& rng,
                                 std::size_t worker) {
  (void)rng;  // coverage selection is fully deterministic
  const support::ScopedPhase phase(&profiler_mut(), support::Phase::kRanking,
                                   worker);
  const CoverageSelector& selector = selectors_[worker];
  const auto& my_subs = subscriptions().of(self);
  if (config_.unbounded) {
    // Additive: keep every existing link, add what coverage still needs.
    for (const auto& entry : selector.select_additional(
             my_subs, candidates, rt, coverage_[self])) {
      (void)rt.add(entry);
    }
    return;
  }
  rt.assign(selector.select_bounded(my_subs, candidates,
                                    base_config().routing_table_size));
}

void OptSystem::on_join(ids::NodeIndex node) {
  if (config_.unbounded) {
    coverage_[node].assign(subscriptions().of(node).size(), 0);
  }
}

void OptSystem::on_leave(ids::NodeIndex node) {
  if (config_.unbounded) {
    coverage_[node].assign(subscriptions().of(node).size(), 0);
  }
}

pubsub::DisseminationReport OptSystem::publish(ids::TopicIndex topic,
                                               ids::NodeIndex publisher) {
  const support::ScopedPhase phase(&profiler_mut(),
                                   support::Phase::kDelivery);
  pubsub::Dissemination& flood = begin_publish(topic, publisher);
  TopicHops hops{{*this}, *this, flood};
  flood.seed(publisher);
  flood.flood(hops);
  return flood.finish();
}

}  // namespace vitis::baselines::opt
