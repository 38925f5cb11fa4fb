// Dense-id SoA arena for the per-node state only Vitis keeps: profiles
// (gateway proposals) and relay tables, one column per field, indexed by
// NodeIndex. The state every system shares — ring ids, join cycles, the
// routing-entry slab and each node's subscriptions and their interned
// SetId — lives in core::OverlaySystem.
//
// The structure-of-arrays layout lets the hot maintenance loops touch
// exactly the columns they need: the election sweep reads profiles without
// pulling relay state into cache, and the relay-refresh stage ages and
// rebuilds relay tables without touching profiles.
//
// Dense-id invariant: NodeIndex is assigned once at construction and is
// stable for the system's lifetime (churn flips liveness, never indices).
#pragma once

#include <cstdint>
#include <vector>

#include "core/profile.hpp"
#include "core/relay.hpp"
#include "ids/id.hpp"

namespace vitis::core {

class NodeArena {
 public:
  /// Allocates columns for `node_count` nodes. Profiles start empty;
  /// populate each node once via init_node.
  explicit NodeArena(std::size_t node_count);

  /// Install a node's profile (construction-time only).
  void init_node(ids::NodeIndex node, Profile profile);

  [[nodiscard]] std::size_t size() const { return profiles_.size(); }

  [[nodiscard]] Profile& profile(ids::NodeIndex node) {
    return profiles_[node];
  }
  [[nodiscard]] const Profile& profile(ids::NodeIndex node) const {
    return profiles_[node];
  }

  [[nodiscard]] RelayTable& relay(ids::NodeIndex node) {
    return relays_[node];
  }
  [[nodiscard]] const RelayTable& relay(ids::NodeIndex node) const {
    return relays_[node];
  }

  /// Reset volatile state on (re)join or departure: relay links drop, and
  /// proposals restart from self.
  void reset_overlay_state(ids::NodeIndex node, ids::RingId id);

  /// Deterministic logical footprint in bytes: the live sizes of every
  /// column (never vector::capacity(), whose growth policy is
  /// implementation-defined). Depends only on (seed, scale).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::vector<Profile> profiles_;
  std::vector<RelayTable> relays_;
};

}  // namespace vitis::core
