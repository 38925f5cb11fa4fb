// Overlay-health gauges and invariant monitors behind the flight recorder
// (support/recorder.hpp).
//
// The HealthAnalyzer computes the structural gauges of one time-series
// sample — per-topic cluster count, ring-successor consistency, view ages —
// from live system state, using epoch-stamped scratch buffers sized once at
// attach() so the steady-state sampling path performs zero heap
// allocations (audited by tests/test_alloc_free). The invariant checks are
// pure predicates over routing state, unit-testable with hand-built
// fixtures; systems wire them to VITIS_CHECK under `--observe`.
//
// Layering: analysis sits above overlay/pubsub but below core, so the
// gateway-depth invariant takes the raw (hops, limit) pair rather than
// core::GatewayProposal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ids/id.hpp"
#include "overlay/routing_table.hpp"
#include "pubsub/subscription.hpp"

namespace vitis::analysis {

// --- invariant monitors ------------------------------------------------------

/// Ring-successor consistency: every entry marked kSuccessor must be the
/// clockwise-closest node among the table's entries (Algorithm 4 picks the
/// globally best successor first, so a violation means selection or
/// heartbeat maintenance corrupted the ring orientation).
[[nodiscard]] bool successor_is_clockwise_closest(
    ids::RingId self, std::span<const overlay::RoutingEntry> entries);

/// Gateway election depth bound (Algorithm 5): accepted proposals must stay
/// within `limit` hops of the proposing gateway.
[[nodiscard]] constexpr bool gateway_depth_bounded(
    std::uint32_t hops, std::uint32_t limit) noexcept {
  return hops <= limit;
}

/// Routing-table bounds: size within capacity, entries unique by node, and
/// no self-loop.
[[nodiscard]] bool table_within_bounds(ids::NodeIndex self,
                                       const overlay::RoutingTable& table);

// --- gauge helpers -----------------------------------------------------------

/// Mean and max heartbeat age over the routing entries of alive nodes
/// (both 0 when no alive node holds an entry).
template <typename AliveFn, typename TableFn>
void view_ages(std::size_t node_count, AliveFn&& is_alive, TableFn&& table_of,
               double& mean_age, double& max_age) {
  std::uint64_t sum = 0;
  std::uint64_t entries = 0;
  std::uint32_t worst = 0;
  for (std::size_t i = 0; i < node_count; ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    if (!is_alive(node)) continue;
    for (const overlay::RoutingEntry& entry : table_of(node).entries()) {
      sum += entry.age;
      worst = std::max(worst, entry.age);
      ++entries;
    }
  }
  mean_age = entries == 0
                 ? 0.0
                 : static_cast<double>(sum) / static_cast<double>(entries);
  max_age = static_cast<double>(worst);
}

/// Allocation-free gauge computation over live overlay state. attach() once
/// (sizes scratch to the node universe), then call the gauges every sampled
/// cycle.
class HealthAnalyzer {
 public:
  /// Pre-size scratch for a universe of ring ids (indexed by NodeIndex).
  void attach(std::span<const ids::RingId> ring_ids);

  [[nodiscard]] bool attached() const { return !ring_order_.empty(); }

  /// Mean cluster count per topic with >= 1 alive subscriber ("a cluster
  /// for topic t is a maximally connected subgraph of the nodes interested
  /// in t", §III-B). `adjacency` is the per-cycle undirected alive-only
  /// neighbor list the systems maintain; lower is better, 1.0 = every topic
  /// fully merged.
  template <typename AliveFn>
  [[nodiscard]] double mean_clusters_per_topic(
      const std::vector<std::vector<ids::NodeIndex>>& adjacency,
      const pubsub::SubscriptionTable& subscriptions, AliveFn&& is_alive) {
    std::size_t topics_counted = 0;
    std::uint64_t cluster_total = 0;
    const std::size_t topic_count = subscriptions.topic_count();
    for (std::size_t t = 0; t < topic_count; ++t) {
      const auto topic = static_cast<ids::TopicIndex>(t);
      // Two stamps per topic: an alive subscriber is first marked a
      // member, then reached once a BFS takes it into a cluster.
      if (epoch_ > UINT32_MAX - 2) {  // wrap-around: reset the stamps once
        std::fill(stamp_.begin(), stamp_.end(), 0U);
        epoch_ = 0;
      }
      const std::uint32_t member = ++epoch_;
      const std::uint32_t reached = ++epoch_;
      bool any_alive = false;
      for (const ids::NodeIndex s : subscriptions.subscribers(topic)) {
        if (!is_alive(s)) continue;
        stamp_[s] = member;
        any_alive = true;
      }
      if (!any_alive) continue;
      std::size_t clusters = 0;
      for (const ids::NodeIndex s : subscriptions.subscribers(topic)) {
        if (stamp_[s] != member) continue;  // dead, or in a cluster already
        ++clusters;
        stamp_[s] = reached;
        queue_.clear();
        queue_.push_back(s);
        for (std::size_t head = 0; head < queue_.size(); ++head) {
          for (const ids::NodeIndex nb : adjacency[queue_[head]]) {
            if (stamp_[nb] != member) continue;
            stamp_[nb] = reached;
            queue_.push_back(nb);
          }
        }
      }
      ++topics_counted;
      cluster_total += clusters;
    }
    return topics_counted == 0 ? 0.0
                               : static_cast<double>(cluster_total) /
                                     static_cast<double>(topics_counted);
  }

  /// Fraction of alive nodes whose kSuccessor routing entry points at the
  /// true next alive node clockwise on the ring (1.0 when fewer than two
  /// nodes are alive — an empty ring is trivially consistent).
  template <typename AliveFn, typename TableFn>
  [[nodiscard]] double ring_consistency(AliveFn&& is_alive,
                                        TableFn&& table_of) {
    const auto points_at = [&](ids::NodeIndex node, ids::NodeIndex truth) {
      const auto entry =
          table_of(node).first_of(overlay::LinkKind::kSuccessor);
      return entry.has_value() && entry->node == truth;
    };
    // Ring order never changes, so it was sorted once in attach(): walk it,
    // skipping dead nodes, and each alive node's truth is the next alive
    // one, wrapping around to the first.
    std::size_t alive = 0;
    std::size_t consistent = 0;
    ids::NodeIndex first = ids::kInvalidNode;
    ids::NodeIndex previous = ids::kInvalidNode;
    for (const ids::NodeIndex node : ring_order_) {
      if (!is_alive(node)) continue;
      if (previous == ids::kInvalidNode) {
        first = node;
      } else if (points_at(previous, node)) {
        ++consistent;
      }
      previous = node;
      ++alive;
    }
    if (alive < 2) return 1.0;
    if (points_at(previous, first)) ++consistent;
    return static_cast<double>(consistent) / static_cast<double>(alive);
  }

 private:
  std::vector<std::uint32_t> stamp_;       // per-node member/reached stamps
  std::vector<ids::NodeIndex> queue_;      // BFS frontier
  std::vector<ids::NodeIndex> ring_order_; // all nodes by (ring id, index)
  std::uint32_t epoch_ = 0;
};

}  // namespace vitis::analysis
