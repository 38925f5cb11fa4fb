// Overlay and Vitis system parameters (§III-A and §IV-A of the paper).
#pragma once

#include <cstddef>
#include <cstdint>

#include "gossip/peer_sampling.hpp"

namespace vitis::core {

/// The gossip substrate the three systems share (§IV: "to make the three
/// systems comparable they use the same peer sampling service and overlay
/// construction protocol"); see core::OverlaySystem.
struct OverlayConfig {
  /// Routing-table size bound ("the routing table size is set to 15").
  std::size_t routing_table_size = 15;

  /// Peer-sampling partial-view size (Newscast).
  std::size_t view_size = 20;

  /// Fresh descriptors the peer-sampling service feeds each T-Man exchange.
  std::size_t sample_size = 10;

  /// Heartbeat rounds after which a silent routing-table entry is dropped
  /// (Algorithm 6 THRESHOLD); trades failure-detection speed for accuracy.
  std::uint32_t staleness_threshold = 8;

  /// Number of bootstrap contacts a joining node receives.
  std::size_t bootstrap_contacts = 5;

  /// Cycles a freshly joined node is excluded from expected-delivery
  /// accounting ("hit ratio for a node is calculated 10 seconds after the
  /// node joins", one gossip period here).
  std::size_t join_grace_cycles = 1;

  /// Which peer-sampling service feeds the gossip layers (the paper cites
  /// Newscast and Cyclon interchangeably; Newscast is its evaluation pick).
  gossip::SamplingPolicy sampling = gossip::SamplingPolicy::kNewscast;

  /// Hop budget for greedy lookups (guards not-yet-converged overlays).
  std::size_t lookup_hop_budget = 128;

  /// Worker threads of the intra-run cycle engine (`--run-jobs`). The
  /// protocol stages are sharded over contiguous node slices with barriered
  /// merges, so the simulated output is bit-identical for ANY value — only
  /// wall time changes. 1 (default) runs stages inline on the calling
  /// thread without spawning workers.
  std::size_t run_jobs = 1;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

struct VitisConfig : OverlayConfig {
  /// k — number of structural links: predecessor + successor + (k-2)
  /// small-world links ("k is set to 3" = pred, succ, one sw-neighbor).
  /// Trades traffic overhead (small k) against propagation delay (large k).
  std::size_t structural_links = 3;

  /// d — gateway depth threshold (Algorithm 5): a gateway serves nodes at
  /// most d cluster-hops away, making gateways-per-cluster proportional to
  /// the cluster diameter ("d is set to 5").
  std::uint32_t gateway_depth = 5;

  /// Relay-table entries expire after this many rounds without being
  /// refreshed by a gateway's lookup.
  std::uint32_t relay_ttl = 3;

  /// Physical-proximity bias of the preference function (§III-A2's
  /// extension: "account for the underlying network topology"). 0 disables;
  /// larger values discount far-away candidates when ranking friends.
  /// Requires coordinates via VitisSystem::set_coordinates().
  double proximity_weight = 0.0;

  /// Extra relay-path setup attempts per hop when a fault plan is active
  /// (bounded retransmit-with-backoff, abstracted to attempts within the
  /// cycle). 0 — the default, keeping recorded outputs byte-identical —
  /// means one attempt and no recovery.
  std::uint32_t relay_retransmit = 0;

  /// When a rendezvous-route hop is dropped under an active fault plan,
  /// up to this many hop-timeout fallbacks re-route via the sender's ring
  /// successor instead of abandoning the publication. 0 (default) disables.
  std::uint32_t route_fallback_limit = 0;

  /// Gateway re-election trigger: after this many consecutive election
  /// rounds in which a remote gateway's proposal only survives as a
  /// growing-hop echo (the silence signature of a crashed gateway), the
  /// node resets to a self-proposal and temporarily bans the silent
  /// gateway. 0 (default) disables.
  std::uint32_t gateway_silence_limit = 0;

  /// Slot budget for the memoized pairwise-utility cache (rounded up to a
  /// power of two; 16 bytes/slot), allocated only under skewed rates
  /// (uniform rates never consult it). 0 disables the cache, as does the
  /// VITIS_UTILITY_CACHE=off environment switch; either way every score is
  /// bit-identical to the uncached merge.
  std::size_t utility_cache_slots = std::size_t{1} << 19;

  [[nodiscard]] std::size_t friend_links() const {
    return routing_table_size - structural_links;
  }

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

}  // namespace vitis::core
