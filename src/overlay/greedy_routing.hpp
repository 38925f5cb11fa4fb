// Greedy lookup over the navigable overlay (rendezvous routing, §III-B).
//
// A lookup for `target` starts at a node and repeatedly forwards to the
// routing-table neighbor whose id is closest to the target, over any link
// kind ("this path can include any kinds of links, e.g. friend, sw-neighbor
// or ring links"). It terminates at the node that is locally closest — with
// a converged ring that is the globally closest node, i.e. the rendezvous
// node for hash(t).
#pragma once

#include <functional>
#include <optional>
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

/// Access to every node's routing entries; implemented by each system.
using NeighborFn =
    std::function<std::span<const RoutingEntry>(ids::NodeIndex)>;

/// The remaining route length from a node to the same target, when the
/// caller already knows it (e.g. from an earlier walk over the same frozen
/// routing state); nullopt otherwise.
using RemainderFn =
    std::function<std::optional<std::size_t>(ids::NodeIndex)>;

/// Greedy lookup. `ring_id_of(n)` gives node n's ring id. The hop budget
/// guards against routing loops on not-yet-converged overlays.
[[nodiscard]] LookupResult greedy_lookup(
    const NeighborFn& neighbors,
    const std::function<ids::RingId(ids::NodeIndex)>& ring_id_of,
    ids::NodeIndex origin, ids::RingId target, std::size_t max_hops = 256);

/// Same lookup into a caller-retained result: `result.path`'s capacity is
/// reused, so steady-state callers (the per-cycle relay refresh) stay
/// allocation-free. With `known_remainder`, the walk stops at the first
/// node (the origin included) for which it returns a length: greedy next
/// hops depend only on the node and the target, so the route from there is
/// the one the caller already knows. Hop counting and convergence then
/// cover walked hops plus that remainder, exactly as a full walk would.
void greedy_lookup_into(
    const NeighborFn& neighbors,
    const std::function<ids::RingId(ids::NodeIndex)>& ring_id_of,
    ids::NodeIndex origin, ids::RingId target, std::size_t max_hops,
    LookupResult& result, const RemainderFn& known_remainder = nullptr);

}  // namespace vitis::overlay
