#include "analysis/health.hpp"

#include <numeric>

namespace vitis::analysis {

bool successor_is_clockwise_closest(
    ids::RingId self, std::span<const overlay::RoutingEntry> entries) {
  for (const overlay::RoutingEntry& entry : entries) {
    if (entry.kind != overlay::LinkKind::kSuccessor) continue;
    const std::uint64_t successor_distance =
        ids::clockwise_distance(self, entry.id);
    for (const overlay::RoutingEntry& other : entries) {
      if (other.node == entry.node) continue;
      const std::uint64_t distance = ids::clockwise_distance(self, other.id);
      // Distance 0 (identical ring id) cannot be ordered on the ring;
      // best_successor skips such candidates, so the monitor must too.
      if (distance != 0 && distance < successor_distance) return false;
    }
  }
  return true;
}

bool table_within_bounds(ids::NodeIndex self,
                         const overlay::RoutingTable& table) {
  const auto entries = table.entries();
  if (entries.size() > table.capacity()) return false;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].node == self) return false;
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[j].node == entries[i].node) return false;
    }
  }
  return true;
}

void HealthAnalyzer::attach(std::span<const ids::RingId> ring_ids) {
  stamp_.assign(ring_ids.size(), 0U);
  queue_.clear();
  queue_.reserve(ring_ids.size());
  ring_order_.resize(ring_ids.size());
  std::iota(ring_order_.begin(), ring_order_.end(), ids::NodeIndex{0});
  std::sort(ring_order_.begin(), ring_order_.end(),
            [&ring_ids](ids::NodeIndex a, ids::NodeIndex b) {
              if (ring_ids[a] != ring_ids[b]) return ring_ids[a] < ring_ids[b];
              return a < b;
            });
  epoch_ = 0;
}

}  // namespace vitis::analysis
