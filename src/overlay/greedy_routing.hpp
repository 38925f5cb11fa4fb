// Greedy lookup over the navigable overlay (rendezvous routing, §III-B).
//
// A lookup for `target` starts at a node and repeatedly forwards to the
// routing-table neighbor whose id is closest to the target, over any link
// kind ("this path can include any kinds of links, e.g. friend, sw-neighbor
// or ring links"). It terminates at the node that is locally closest — with
// a converged ring that is the globally closest node, i.e. the rendezvous
// node for hash(t).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ids/id.hpp"
#include "overlay/routing_table.hpp"

namespace vitis::overlay {

struct LookupResult {
  /// Visited nodes in order, starting with the origin. A full walk ends at
  /// the owner; an early exit ends at the first node whose remaining route
  /// the caller already knew.
  std::vector<ids::NodeIndex> path;
  /// The node that answered the lookup (rendezvous node for the target);
  /// kInvalidNode after an early exit, which never reaches it.
  ids::NodeIndex owner = ids::kInvalidNode;
  /// Hops of the route beyond path.back() that the walk skipped because
  /// the caller knew them (0 for a full walk).
  std::size_t remainder = 0;
  /// False when the whole route (walked hops plus remainder) does not fit
  /// the hop budget.
  bool converged = false;

  /// Length of the whole route: walked hops plus the known remainder.
  [[nodiscard]] std::size_t hops() const {
    return (path.empty() ? 0 : path.size() - 1) + remainder;
  }
};

/// Remaining route lengths toward one target, per node, learned from
/// earlier routes over the same frozen routing state. A slot counts while
/// its epoch equals the current one, so moving to the next target forgets
/// every mark in O(1).
class RouteMarks {
 public:
  /// One slot per node; forgets every mark.
  void resize(std::size_t nodes) { slots_.assign(nodes, Slot{}); }

  /// Forget every mark (the next walks head for a new target).
  void next_target() {
    if (++epoch_ != 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }

  /// Record every node of `route`, a converged route to the current target,
  /// with the hops left from it: route.hops() - i for path[i].
  void mark(const LookupResult& route) {
    for (std::size_t i = 0; i < route.path.size(); ++i) {
      slots_[route.path[i]] =
          Slot{epoch_, static_cast<std::uint32_t>(route.hops() - i)};
    }
  }

  /// Whether `node` lies on a marked route; if so, `remaining` receives the
  /// hops left from it.
  [[nodiscard]] bool known(ids::NodeIndex node, std::size_t& remaining) const {
    const Slot slot = slots_[node];
    if (slot.epoch != epoch_) return false;
    remaining = slot.remaining;
    return true;
  }

 private:
  struct Slot {
    std::uint32_t epoch = 0;  // never current: epoch_ skips 0
    std::uint32_t remaining = 0;
  };
  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
};

/// Greedy lookup from `origin` into a caller-retained result (the capacity
/// of `result.path` is reused, so steady-state callers stay
/// allocation-free). `tables[n]` and `ring_ids[n]` are node n's routing
/// table and ring id; entries naming a node for which `is_alive` is false
/// are skipped. The hop budget guards against routing loops on
/// not-yet-converged overlays.
///
/// With `marks`, the walk stops at the first node (the origin included)
/// that `marks` knows: greedy next hops depend only on the node and the
/// target, so the route from there is the one already marked. Hop counting
/// and convergence then cover walked hops plus that remainder, exactly as a
/// full walk would.
template <typename AliveFn>
void greedy_lookup_into(std::span<const RoutingTable> tables,
                        std::span<const ids::RingId> ring_ids,
                        const AliveFn& is_alive, ids::NodeIndex origin,
                        ids::RingId target, std::size_t max_hops,
                        LookupResult& result,
                        const RouteMarks* marks = nullptr) {
  result.path.clear();
  result.owner = ids::kInvalidNode;
  result.remainder = 0;
  result.converged = false;
  ids::NodeIndex current = origin;
  result.path.push_back(current);

  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    std::size_t rest = 0;
    if (marks != nullptr && marks->known(current, rest)) {
      // A full walk would take `rest` more hops plus the final local-minimum
      // check, i.e. steps hop..hop + rest of the budget.
      result.remainder = rest;
      result.converged = rest < max_hops - hop;
      return;
    }
    ids::NodeIndex best_node = ids::kInvalidNode;
    ids::RingId best_id = ring_ids[current];
    for (const RoutingEntry& entry : tables[current].entries()) {
      if (entry.node == current || !is_alive(entry.node)) continue;
      if (ids::closer_to(target, entry.id, best_id)) {
        best_node = entry.node;
        best_id = entry.id;
      }
    }
    if (best_node == ids::kInvalidNode) {
      // Local minimum: `current` is the closest node it knows of — done.
      result.owner = current;
      result.converged = true;
      return;
    }
    current = best_node;
    result.path.push_back(current);
  }

  // Budget exhausted; report the last node but flag non-convergence.
  result.owner = current;
  result.converged = false;
}

}  // namespace vitis::overlay
