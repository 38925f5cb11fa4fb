// Dense-id SoA arena for the per-node state only Vitis keeps: profiles
// (subscriptions + gateway proposals) and relay tables, one column per
// field, indexed by NodeIndex. The state every system shares — ring ids,
// join cycles and the routing-entry slab — lives in core::OverlaySystem.
//
// The structure-of-arrays layout lets the hot maintenance loops touch
// exactly the columns they need: the election sweep reads profiles without
// pulling relay state into cache, and heartbeats age relay tables without
// touching profiles.
//
// Dense-id invariants: NodeIndex is assigned once at construction and is
// stable for the system's lifetime (churn flips liveness, never indices);
// a node's interned SetId lives in its profile column and is refreshed by
// the owner on subscription change or churn rejoin.
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

  /// Contiguous scoring mirror of the profile column: each node's live
  /// subscription fingerprint and interned SetId, kept in dense arrays so
  /// core::BatchScorer streams candidate pools without a Profile pointer
  /// chase per lane. Refreshed by the profile owner whenever the
  /// subscription set or its canonical id changes.
  void refresh_scoring(ids::NodeIndex node) {
    sub_fingerprints_[node] = profiles_[node].subscriptions().fingerprint();
    sub_set_ids_[node] = profiles_[node].set_id();
  }
  [[nodiscard]] std::uint64_t sub_fingerprint(ids::NodeIndex node) const {
    return sub_fingerprints_[node];
  }
  [[nodiscard]] pubsub::SetId sub_set_id(ids::NodeIndex node) const {
    return sub_set_ids_[node];
  }

  /// Reset volatile state on (re)join or departure: relay links drop, and
  /// proposals restart from self; subscriptions persist across sessions.
  void reset_overlay_state(ids::NodeIndex node, ids::RingId id);

  /// Deterministic logical footprint in bytes: the live sizes of every
  /// column (never vector::capacity(), whose growth policy is
  /// implementation-defined). Depends only on (seed, scale). The scoring
  /// mirror columns are excluded — they duplicate profile state, and the
  /// footprint counts each logical datum once.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::vector<Profile> profiles_;
  std::vector<RelayTable> relays_;
  // Scoring mirror (see refresh_scoring). Derived caches of profile state,
  // so they are excluded from memory_bytes(): the logical footprint already
  // counts the profiles they duplicate.
  std::vector<std::uint64_t> sub_fingerprints_;
  std::vector<pubsub::SetId> sub_set_ids_;
};

}  // namespace vitis::core
