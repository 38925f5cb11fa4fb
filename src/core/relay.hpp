// Per-node relay state (§III-B): a node on the lookup path from a gateway
// to a rendezvous node becomes a *relay node* for that topic. We store, per
// topic, the adjacent nodes on relay paths (toward gateways and toward the
// rendezvous alike — the union of paths is an undirected tree rooted at the
// rendezvous node). Links age out unless a gateway's periodic lookup
// refreshes them, which is how departed relays are pruned. RVR's Scribe
// multicast trees (§IV) are the same structure, grown by subscribers'
// routes.
//
// Layout: a flat segment index (sorted by topic) over one contiguous link
// array, in segment order. Lookups binary-search the segments, and links()
// hands out a span without copying — the dissemination loop reads it on
// every forwarded event. Flattening the per-topic link lists into a single
// array costs two heap blocks per node instead of 1 + topic_count, which
// is what makes a million relay tables affordable.
//
// Tables are not small: on a 3,000-node uniform workload a node holds
// about 250 links in about 100 topic segments, and each cycle about 40
// links arrive and 35 expire. Every table is therefore restructured every
// cycle, so the host's relay refresh maintains it with rebuild(): one merge
// of the segments with the cycle's installs that also ages the links,
// O(table + installs). add_link() costs O(table) per inserted link (the
// array shifts); it stays only as the tests' reference: RelayRebuild.* and
// the serial relay-refresh replays compare rebuild() against it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ids/id.hpp"

namespace vitis::core {

class RelayTable {
  struct Segment {
    ids::TopicIndex topic;
    std::uint32_t begin;  // offset into links_
    std::uint32_t count;
  };

 public:
  struct Link {
    ids::NodeIndex peer;
    std::uint32_t age;
  };

  /// A link to install or refresh: `peer` for `topic`.
  struct Install {
    ids::TopicIndex topic;
    ids::NodeIndex peer;
  };

  /// Add (or refresh) a relay link to `peer` for `topic` (test reference
  /// for rebuild(), see above).
  void add_link(ids::TopicIndex topic, ids::NodeIndex peer);

  /// Relay links for a topic, in insertion order (empty when not a relay
  /// for it). Invalidated by any mutating call.
  [[nodiscard]] std::span<const Link> links(ids::TopicIndex topic) const;

  [[nodiscard]] bool is_relay_for(ids::TopicIndex topic) const;

  /// Number of topics this node currently relays.
  [[nodiscard]] std::size_t topic_count() const { return segments_.size(); }

  /// Total number of relay links across all topics.
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Age all links by one round and drop those older than `ttl`.
  void age_and_expire(std::uint32_t ttl);

  /// Working memory of rebuild(). Reusing one keeps rebuilds
  /// allocation-free once it has grown to the largest table plus installs
  /// seen.
  class Scratch {
    friend class RelayTable;
    std::vector<Segment> segments_;  // the merged table, copied back
    std::vector<Link> links_;
  };

  /// One round in one pass: age all links, drop those older than `ttl`,
  /// then add or refresh a link per install. `installs` must be grouped by
  /// topic in ascending order, each topic's installs in arrival order. The
  /// result, link order and ages included, equals age_and_expire(ttl)
  /// followed by add_link() per install in arrival order.
  void rebuild(std::uint32_t ttl, std::span<const Install> installs,
               Scratch& scratch);

  void clear() {
    segments_.clear();
    links_.clear();
  }

  /// Deterministic logical footprint in bytes (live sizes, never
  /// vector::capacity() — growth policy is implementation-defined).
  [[nodiscard]] std::size_t memory_bytes() const {
    return segments_.size() * sizeof(Segment) + links_.size() * sizeof(Link);
  }

 private:
  [[nodiscard]] std::size_t lower_bound(ids::TopicIndex topic) const;

  std::vector<Segment> segments_;  // sorted by topic, no empty segments
  std::vector<Link> links_;        // contiguous, in segment order
};

}  // namespace vitis::core
