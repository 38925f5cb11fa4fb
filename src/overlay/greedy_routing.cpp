#include "overlay/greedy_routing.hpp"

#include "support/check.hpp"

namespace vitis::overlay {

LookupResult greedy_lookup(
    const NeighborFn& neighbors,
    const std::function<ids::RingId(ids::NodeIndex)>& ring_id_of,
    ids::NodeIndex origin, ids::RingId target, std::size_t max_hops) {
  LookupResult result;
  greedy_lookup_into(neighbors, ring_id_of, origin, target, max_hops, result);
  return result;
}

void greedy_lookup_into(
    const NeighborFn& neighbors,
    const std::function<ids::RingId(ids::NodeIndex)>& ring_id_of,
    ids::NodeIndex origin, ids::RingId target, std::size_t max_hops,
    LookupResult& result, const RemainderFn& known_remainder) {
  VITIS_CHECK(neighbors != nullptr && ring_id_of != nullptr);
  result.path.clear();
  result.owner = ids::kInvalidNode;
  result.remainder = 0;
  result.converged = false;
  ids::NodeIndex current = origin;
  result.path.push_back(current);

  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    if (known_remainder != nullptr) {
      if (const std::optional<std::size_t> rest = known_remainder(current)) {
        // A full walk would take `*rest` more hops plus the final local-
        // minimum check, i.e. steps hop..hop + *rest of the budget.
        result.remainder = *rest;
        result.converged = *rest < max_hops - hop;
        return;
      }
    }
    const ids::RingId current_id = ring_id_of(current);
    ids::NodeIndex best_node = ids::kInvalidNode;
    ids::RingId best_id = current_id;
    for (const RoutingEntry& entry : neighbors(current)) {
      if (entry.node == current) continue;
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
