// VitisSystem — the Vitis protocol stack on the shared gossip host
// (core::OverlaySystem). One instance simulates a whole network:
//
//   * Newscast peer sampling feeds fresh descriptors (§III-A);
//   * T-Man exchanges rebuild routing tables with Algorithm 4's selection
//     (ring links + Symphony small-world links + utility-ranked friends);
//   * profile exchange ages heartbeats, runs the Algorithm 5 gateway
//     election, and lets elected gateways establish relay paths by greedy
//     lookup toward hash(t) on the host's relay refresh (§III-B);
//   * publish() disseminates an event by flooding inside clusters and
//     forwarding along relay trees (§III-C), collecting the paper's three
//     metrics.
//
// Churn enters through node_join()/node_leave() (§III-D): state of departed
// nodes is dropped, neighbors detect the silence through heartbeat ages,
// relay paths decay through their TTL, and the next election rounds repair
// gateways.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/batch_score.hpp"
#include "core/config.hpp"
#include "core/gateway.hpp"
#include "core/overlay_system.hpp"
#include "core/profile.hpp"
#include "core/utility.hpp"
#include "sim/coordinates.hpp"

namespace vitis::core {

class VitisSystem final : public OverlaySystem {
 public:
  /// `rates[t]` is topic t's publication rate (drives Eq. 1); pass uniform
  /// rates when unknown. With `start_online` every node boots immediately
  /// with random bootstrap contacts; otherwise all nodes start offline and
  /// join through node_join() (churn experiments).
  VitisSystem(VitisConfig config, pubsub::SubscriptionTable subscriptions,
              std::vector<double> rates, std::uint64_t seed,
              bool start_online = true);

  [[nodiscard]] std::string name() const override { return "Vitis"; }
  pubsub::DisseminationReport publish(ids::TopicIndex topic,
                                      ids::NodeIndex publisher) override;

  // --- dynamic subscriptions (§III) ----------------------------------------
  /// Add/remove a topic from a node's profile at runtime; friend selection,
  /// clustering, gateway election and relay paths adapt over the following
  /// gossip cycles. Returns false when the relation already held.
  bool subscribe(ids::NodeIndex node, ids::TopicIndex topic);
  bool unsubscribe(ids::NodeIndex node, ids::TopicIndex topic);

  // --- introspection (tests, benches, analysis) ----------------------------
  [[nodiscard]] const VitisConfig& config() const { return config_; }
  using OverlaySystem::relay_table;
  [[nodiscard]] const Profile& profile(ids::NodeIndex node) const {
    return profiles_[node];
  }
  /// `node`'s current proposal for `topic`; nullopt when it does not
  /// subscribe to the topic.
  [[nodiscard]] std::optional<GatewayProposal> proposal(
      ids::NodeIndex node, ids::TopicIndex topic) const;
  [[nodiscard]] const PairUtilityCache& utility_cache() const {
    return utility_cache_;
  }

  /// True when `node` currently proposes itself as gateway for `topic`.
  [[nodiscard]] bool is_gateway(ids::NodeIndex node,
                                ids::TopicIndex topic) const;

  /// All current gateways of a topic.
  [[nodiscard]] std::vector<ids::NodeIndex> gateways_of(
      ids::TopicIndex topic) const;

  /// The alive node whose id is globally closest to hash(topic) — what a
  /// perfect lookup should find (test oracle).
  [[nodiscard]] ids::NodeIndex global_rendezvous(ids::TopicIndex topic) const;

  // --- physical proximity extension (§III-A2) -------------------------------
  /// Install per-node coordinates; with config().proximity_weight > 0 the
  /// preference function discounts physically distant candidates.
  void set_coordinates(std::vector<sim::Coordinate> coordinates);

  /// Mean physical latency across current friend links (ms); 0 when no
  /// coordinates are installed or no friend links exist.
  [[nodiscard]] double mean_friend_latency_ms() const;

 private:
  // Vitis' next hops for the shared forwarding loop (defined in the .cpp).
  struct Hops;

  // --- OverlaySystem hooks ------------------------------------------------
  // Algorithm 4 on worker `worker`'s ranking scratch. `rng` is the calling
  // exchange's deterministic stream (drives the small-world target draws).
  void select_neighbors(ids::NodeIndex self,
                        std::span<const gossip::Descriptor> candidates,
                        overlay::RoutingTable& table, sim::Rng& rng,
                        std::size_t worker) override;

  // The wave barrier: commit the pair memo's deferred inserts.
  void end_selection_wave() override;

  // Gateway-election sweep after the host's adjacency rebuild, once per
  // cycle. Nodes go in ascending order (each reads proposals its lower
  // neighbors already rewrote), but topics are independent, so the sweep
  // runs on the pool sharded by topic range. Requests the elected
  // self-gateways' relay walks for the host's relay-refresh stage instead
  // of serving them inline.
  void maintenance_extra() override;

  // Gateway proposals stay within the depth threshold d.
  void check_node_invariants(ids::NodeIndex node) const override;

  // Churn (the host drops the relay links): proposals restart from self;
  // a rejoining node also re-interns its (possibly changed) subscription
  // set.
  void on_join(ids::NodeIndex node) override;
  void on_leave(ids::NodeIndex node) override;

  [[nodiscard]] const PairUtilityCache* pair_cache() const override {
    return &utility_cache_;
  }
  // The profiles and the election's topic stamps.
  [[nodiscard]] std::size_t extra_memory_bytes() const override;

  // Re-intern a node's (possibly changed) subscription set and restart its
  // silence bookkeeping (subscription change and churn rejoin are the
  // callers).
  void reintern(ids::NodeIndex node);

  struct ElectionShard;
  // Cut the topic index space into one contiguous range per worker,
  // balanced by subscriber counts.
  void cut_election_shards();
  // Algorithm 5 for `node`'s topics in `shard`'s range.
  void run_election(ids::NodeIndex node, ElectionShard& shard);

  /// Gateway-silence bookkeeping for topic position `pos` of `node` after
  /// an election round adopted `previous` -> current. Detects the echo
  /// signature of a crashed gateway (same gateway, strictly growing hops)
  /// and, at the configured limit, resets to a self-proposal and bans the
  /// silent gateway for a few rounds.
  void apply_gateway_silence(ids::NodeIndex node, std::size_t pos,
                             const GatewayProposal& previous);

  VitisConfig config_;
  PairUtilityCache utility_cache_;  // memoized Eq.-1 scores over SetId pairs
  std::vector<Profile> profiles_;    // gateway proposals, by node

  // Gateway-silence counters, one per (node, subscribed-topic position);
  // allocated in the ctor only when gateway_silence_limit > 0 and resized
  // on subscription change (pre-sized: the election path stays
  // allocation-free).
  struct TopicSilence {
    std::uint32_t silent = 0;                   // consecutive echo rounds
    std::uint32_t ban_ttl = 0;                  // rounds the ban persists
    ids::NodeIndex banned = ids::kInvalidNode;  // suppressed gateway
  };
  std::vector<std::vector<TopicSilence>> silence_;

  // Physical coordinates (empty unless set_coordinates() was called).
  std::vector<sim::Coordinate> coordinates_;

  // Scratch buffers, reused to keep the hot paths allocation-free.
  // Algorithm 4's ranking working set, one per T-Man wave worker (the host
  // holds the candidates and the selection): the utility function with its
  // prepared stamps, attached to the memo on the worker's lane; batch owns
  // the SoA candidate pool the SIMD scoring passes stream over; ranked
  // receives rank_top_k's (score, pool index) prefix. Cache-line aligned,
  // so workers share no line.
  struct alignas(64) Ranker {
    UtilityFunction utility;
    BatchScorer batch;
    std::vector<std::pair<double, std::size_t>> ranked;
  };
  std::vector<Ranker> rankers_;

  // The election sweep's per-worker scratch, which memory_footprint()
  // leaves out but for one copy of the topic stamps and positions. A
  // worker owns the topics [begin, end) (all of them at run_jobs 1); above
  // run_jobs 1, first/last hold where the range sits in each alive node's
  // topic list this cycle. The positions of a node's topics in the range
  // are epoch-stamped, so a
  // neighbor's merge is O(|their topics in range|) with O(1) membership
  // tests; one running proposal per own topic position in the range; the
  // positions of one neighbor's shared topics; a mark of the node's
  // neighbors (the line-7 scope test) valid while it equals the epoch; and
  // the worker's relay requests, ascending by (node, topic). The vectors
  // grow only to the largest topic count.
  struct Ballot {
    ids::RingId topic_hash = 0;
    GatewayProposal proposal;
  };
  struct RelayRequest {
    ids::NodeIndex node;
    ids::TopicIndex topic;
  };
  struct alignas(64) ElectionShard {
    ids::TopicIndex begin = 0;
    ids::TopicIndex end = 0;
    bool all_topics = true;
    std::vector<std::uint32_t> first;
    std::vector<std::uint32_t> last;
    std::vector<std::uint32_t> topic_stamp;
    std::vector<std::size_t> topic_pos;
    std::uint32_t epoch = 0;
    std::vector<Ballot> ballots;
    std::vector<std::uint32_t> shared_pos;
    std::vector<std::uint32_t> neighbor_mark;
    std::vector<RelayRequest> requests;
  };
  std::vector<ElectionShard> election_;
  std::vector<std::size_t> request_cursor_;  // the requests' merge, by shard
  // Sorted live relay peers of one dissemination visit
  // (Hops::for_each_next).
  std::vector<ids::NodeIndex> relay_peers_;
};

}  // namespace vitis::core
