// Node descriptors exchanged by the gossip layers.
//
// A descriptor is what one node knows about another: its simulator index,
// its ring id and an age (gossip rounds since the information was fresh).
// Ages implement Newscast-style freshness ordering and failure detection.
// What a node's profile holds (subscriptions, gateway proposals) travels in
// heartbeats, not in descriptors; consumers read it live from the owning
// system (see DESIGN.md "Hot path & determinism").
#pragma once

#include <cstdint>

#include "ids/id.hpp"

namespace vitis::gossip {

struct Descriptor {
  ids::NodeIndex node = ids::kInvalidNode;
  ids::RingId id = 0;
  std::uint32_t age = 0;

  friend bool operator==(const Descriptor& a, const Descriptor& b) {
    return a.node == b.node;  // identity, not freshness
  }
};

}  // namespace vitis::gossip
