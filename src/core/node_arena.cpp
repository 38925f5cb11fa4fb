#include "core/node_arena.hpp"

#include <utility>

#include "support/check.hpp"

namespace vitis::core {

NodeArena::NodeArena(std::size_t node_count)
    : profiles_(node_count), relays_(node_count) {}

void NodeArena::init_node(ids::NodeIndex node, Profile profile) {
  VITIS_CHECK(node < size());
  profiles_[node] = std::move(profile);
}

void NodeArena::reset_overlay_state(ids::NodeIndex node, ids::RingId id) {
  relays_[node].clear();
  profiles_[node].reset_proposals(node, id);
}

std::size_t NodeArena::memory_bytes() const {
  const std::size_t n = size();
  std::size_t bytes = n * (sizeof(Profile) + sizeof(RelayTable));
  for (std::size_t i = 0; i < n; ++i) {
    bytes += profiles_[i].memory_bytes() + relays_[i].memory_bytes();
  }
  return bytes;
}

}  // namespace vitis::core
