// VitisSystem — the complete Vitis protocol stack over the simulation
// substrate. One instance simulates a whole network:
//
//   * Newscast peer sampling feeds fresh descriptors (§III-A);
//   * T-Man exchanges rebuild routing tables with Algorithm 4's selection
//     (ring links + Symphony small-world links + utility-ranked friends);
//   * profile exchange ages heartbeats, runs the Algorithm 5 gateway
//     election, and lets elected gateways establish relay paths by greedy
//     lookup toward hash(t) (§III-B);
//   * publish() disseminates an event by flooding inside clusters and
//     forwarding along relay trees (§III-C), collecting the paper's three
//     metrics.
//
// Churn enters through node_join()/node_leave() (§III-D): state of departed
// nodes is dropped, neighbors detect the silence through heartbeat ages,
// relay paths decay through their TTL, and the next election rounds repair
// gateways.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/graph.hpp"
#include "analysis/health.hpp"
#include "core/batch_score.hpp"
#include "core/config.hpp"
#include "core/gateway.hpp"
#include "core/node_arena.hpp"
#include "core/utility.hpp"
#include "gossip/sampling_service.hpp"
#include "gossip/tman.hpp"
#include "overlay/greedy_routing.hpp"
#include "pubsub/dissemination.hpp"
#include "pubsub/system.hpp"
#include "sim/coordinates.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/fault.hpp"
#include "sim/outbox.hpp"

namespace vitis::core {

/// publish_timed() result: hop-based accounting plus wall-clock latency.
struct TimedDisseminationReport {
  pubsub::DisseminationReport base;
  double delay_ms_sum = 0.0;  // over delivered subscribers
  double max_delay_ms = 0.0;

  [[nodiscard]] double mean_delay_ms() const {
    return base.delivered == 0
               ? 0.0
               : delay_ms_sum / static_cast<double>(base.delivered);
  }
};

class VitisSystem final : public pubsub::PubSubSystem {
 public:
  /// `rates[t]` is topic t's publication rate (drives Eq. 1); pass uniform
  /// rates when unknown. With `start_online` every node boots immediately
  /// with random bootstrap contacts; otherwise all nodes start offline and
  /// join through node_join() (churn experiments).
  VitisSystem(VitisConfig config, pubsub::SubscriptionTable subscriptions,
              std::vector<double> rates, std::uint64_t seed,
              bool start_online = true);

  // --- PubSubSystem --------------------------------------------------------
  [[nodiscard]] std::string name() const override { return "Vitis"; }
  void run_cycles(std::size_t cycles) override;
  pubsub::DisseminationReport publish(ids::TopicIndex topic,
                                      ids::NodeIndex publisher) override;
  [[nodiscard]] pubsub::MetricsCollector& metrics() override {
    return metrics_;
  }
  [[nodiscard]] const pubsub::MetricsCollector& metrics() const override {
    return metrics_;
  }
  [[nodiscard]] const pubsub::SubscriptionTable& subscriptions()
      const override {
    return subscriptions_;
  }
  [[nodiscard]] std::size_t alive_count() const override {
    return engine_.alive_count();
  }

  // --- churn ---------------------------------------------------------------
  void node_join(ids::NodeIndex node);
  void node_leave(ids::NodeIndex node);
  [[nodiscard]] bool is_alive(ids::NodeIndex node) const {
    return engine_.is_alive(node);
  }

  // --- fault injection (lossy-network model) -------------------------------
  /// Install (or replace) the deterministic fault plan. All fault draws
  /// come from the dedicated seed^"fault" stream; a plan with no active
  /// mechanisms leaves the run byte-identical to a fault-free one. Passing
  /// a fresh FaultConfig{} heals the network (crashed nodes stay down).
  void set_fault_plan(const sim::FaultConfig& config);
  [[nodiscard]] const sim::FaultPlan& fault_plan() const { return fault_; }

  /// Crash-without-leave: the node silently goes offline. Unlike
  /// node_leave its overlay state and its peers' references survive —
  /// neighbors must detect the silence through heartbeat staleness, and
  /// elections must route around the dead gateway. Idempotent.
  void node_crash(ids::NodeIndex node);

  // --- dynamic subscriptions (§III) ----------------------------------------
  /// Add/remove a topic from a node's profile at runtime; friend selection,
  /// clustering, gateway election and relay paths adapt over the following
  /// gossip cycles. Returns false when the relation already held.
  bool subscribe(ids::NodeIndex node, ids::TopicIndex topic);
  bool unsubscribe(ids::NodeIndex node, ids::TopicIndex topic);

  // --- introspection (tests, benches, analysis) ----------------------------
  [[nodiscard]] const VitisConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return arena_.size(); }
  [[nodiscard]] std::size_t cycle() const { return engine_.cycle(); }
  [[nodiscard]] ids::RingId ring_id(ids::NodeIndex node) const {
    return arena_.ring_id(node);
  }
  [[nodiscard]] const overlay::RoutingTable& routing_table(
      ids::NodeIndex node) const {
    return arena_.rt(node);
  }
  [[nodiscard]] const RelayTable& relay_table(ids::NodeIndex node) const {
    return arena_.relay(node);
  }
  [[nodiscard]] const Profile& profile(ids::NodeIndex node) const {
    return arena_.profile(node);
  }
  [[nodiscard]] const NodeArena& arena() const { return arena_; }
  [[nodiscard]] const pubsub::SubscriptionRegistry& registry() const {
    return registry_;
  }
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

  /// Greedy lookup from `origin` toward `target` over live routing state.
  [[nodiscard]] overlay::LookupResult lookup(ids::NodeIndex origin,
                                             ids::RingId target) const;

  /// Allocation-free lookup into a member result buffer; the reference is
  /// valid until the next lookup. Used by the per-cycle relay refresh.
  const overlay::LookupResult& lookup_cached(ids::NodeIndex origin,
                                             ids::RingId target) const;

  /// One gossip activation for `node` — a peer-sampling prepare/apply pair
  /// followed by a T-Man pair, with the same counter-based RNG forks the
  /// cycle engine would use at the current cycle. Test hook for the
  /// allocation audit of the steady-state step.
  void gossip_step(ids::NodeIndex node);

  /// Deterministic logical footprint of the per-node protocol state in
  /// bytes: the node arena (routing slab, profiles, relay tables) plus the
  /// sampling views and the undirected adjacency. A pure function of
  /// (seed, scale) — safe for stdout; the OS-level peak_rss_bytes gauge in
  /// the bench artifact is the telemetry-side counterpart.
  [[nodiscard]] std::size_t memory_footprint() const override;

  /// Maintenance throughput over the wall time spent inside run_cycles()
  /// (telemetry only, never printed to stdout). 0 before the first cycle.
  [[nodiscard]] double cycles_per_second() const override {
    return engine_.cycles_per_second();
  }

  /// Cycle-engine worker count (`--run-jobs`); output is bit-identical for
  /// any value, so this is telemetry only.
  [[nodiscard]] std::size_t run_jobs() const override {
    return engine_.run_jobs();
  }

  /// Per-stage busy/span accounting of the sharded engine (telemetry).
  [[nodiscard]] std::vector<support::ParallelPhaseStats> parallel_phases()
      const override;

  /// Syncs the cache/interning counters into the profiler before returning
  /// it, so artifact writers always see current totals.
  [[nodiscard]] const support::Profiler* profiler() const override;
  [[nodiscard]] support::Profiler& profiler_mut() { return profiler_; }

  /// Syncs the end-of-run channels (per-node message totals) before
  /// returning the distribution set, mirroring profiler()'s counter sync.
  [[nodiscard]] const support::HistogramSet* distributions() const override;

  // --- flight recorder (observability) --------------------------------------
  /// Enable/reconfigure the flight recorder. The engine then samples the
  /// overlay-health time series on strided cycles; publish() traces a
  /// Bernoulli-sampled subset of publications from a dedicated RNG stream
  /// (never the protocol's rng_, so observation cannot perturb the run).
  void configure_recorder(const support::RecorderConfig& config) override;
  [[nodiscard]] const support::Recorder* recorder() const override {
    return &recorder_;
  }

  /// Take one time-series sample at the current cycle (and run the
  /// invariant monitors when configured). The engine calls this on sampled
  /// cycles; tests call it directly for the allocation audit.
  void observe_sample();

  /// Undirected snapshot of the current overlay (alive nodes only).
  [[nodiscard]] analysis::Graph overlay_snapshot() const;

  // --- physical proximity extension (§III-A2) -------------------------------
  /// Install per-node coordinates; with config().proximity_weight > 0 the
  /// preference function discounts physically distant candidates.
  void set_coordinates(std::vector<sim::Coordinate> coordinates);

  /// Mean physical latency across current friend links (ms); 0 when no
  /// coordinates are installed or no friend links exist.
  [[nodiscard]] double mean_friend_latency_ms() const;

  /// Event-driven dissemination: identical forwarding rule to publish(),
  /// but each transmission arrives after its link latency (from the
  /// installed coordinates; a uniform 1 ms without them), and deliveries
  /// are timed by earliest arrival. Updates metrics() like publish().
  [[nodiscard]] TimedDisseminationReport publish_timed(
      ids::TopicIndex topic, ids::NodeIndex publisher);

 private:
  // Vitis' next hops for the shared forwarding loop (defined in the .cpp).
  struct Hops;

  // publish()/publish_timed(): the §III-C dissemination under a queue
  // policy, with the greedy handoff for publishers outside the topic.
  template <pubsub::QueuePolicy P>
  pubsub::DisseminationReport disseminate(ids::TopicIndex topic,
                                          ids::NodeIndex publisher);

  // Algorithm 4. `rng` is the calling exchange's deterministic stream
  // (drives the small-world target draws).
  void select_neighbors(ids::NodeIndex self,
                        std::span<const gossip::Descriptor> candidates,
                        overlay::RoutingTable& table, sim::Rng& rng);

  // Adjacency rebuild + gateway-election sweep, once per cycle (serial
  // hook; elections have cross-node read-modify-write dependencies).
  // Collects the elected self-gateways' relay requests for the following
  // relay-refresh stage instead of serving them inline.
  void cycle_maintenance();

  // Counting-sort the sweep's relay requests by topic (gateways ascending
  // within a topic) and hand each topic to the gateway whose ring id is
  // closest to hash(t), which walks all of the topic's routes.
  void group_relay_requests();

  void rebuild_undirected();
  void check_invariants() const;

  // Stage body: age/drop own routing-table heartbeats and expire own relay
  // links. Node-local by construction (runs in parallel).
  void refresh_heartbeats(ids::NodeIndex node, std::size_t worker);

  // Stage body: walk the relay routes of every topic handed to `node` —
  // greedy lookups over frozen routing state plus counter-based fault
  // admission, gateways ascending — emitting link installs into the
  // worker's outbox lane; the stage's sharded merge applies them, each
  // worker to the relay tables of the nodes it owns. Without a fault plan
  // a walk ends where it meets an earlier route of the same topic (see
  // DESIGN.md "Hot path & determinism").
  void refresh_relays(ids::NodeIndex node, std::size_t worker);

  // Re-intern a node's (possibly changed) subscription set; when the
  // canonical id changed, defensively invalidate the pairwise-utility memo
  // (subscription change and churn rejoin are the two callers).
  void refresh_set_id(ids::NodeIndex node);
  void run_election(ids::NodeIndex node);

  /// One relay-setup hop under the fault plan, with bounded retransmit
  /// (config_.relay_retransmit extra attempts). Always true without an
  /// active plan. `nonce_base`/`hop` key the admission draws (explicit
  /// counter nonces — this runs inside a parallel stage).
  [[nodiscard]] bool relay_hop_delivered(ids::NodeIndex src,
                                         ids::NodeIndex dst,
                                         std::uint64_t nonce_base,
                                         std::uint32_t hop) const;

  /// Gateway-silence bookkeeping for topic position `pos` of `node` after
  /// an election round adopted `previous` -> current. Detects the echo
  /// signature of a crashed gateway (same gateway, strictly growing hops)
  /// and, at the configured limit, resets to a self-proposal and bans the
  /// silent gateway for a few rounds.
  void apply_gateway_silence(ids::NodeIndex node, std::size_t pos,
                             ids::TopicIndex topic,
                             const GatewayProposal& previous);

  [[nodiscard]] std::vector<ids::NodeIndex> random_alive_contacts(
      std::size_t count, ids::NodeIndex exclude);

  VitisConfig config_;
  pubsub::SubscriptionTable subscriptions_;
  pubsub::SubscriptionRegistry registry_;  // hash-consed subscription sets
  UtilityFunction utility_;
  PairUtilityCache utility_cache_;  // memoized Eq.-1 scores over SetId pairs
  sim::CycleEngine engine_;
  NodeArena arena_;  // dense-id SoA columns for all per-node protocol state
  std::unique_ptr<gossip::SamplingService> sampling_;
  std::unique_ptr<gossip::TManProtocol> tman_;
  pubsub::MetricsCollector metrics_;
  sim::Rng rng_;

  // Flight recorder (off by default; see configure_recorder). Trace
  // sampling draws from the dissemination's own stream, never rng_.
  support::Recorder recorder_;
  analysis::HealthAnalyzer health_;
  pubsub::Dissemination dissemination_;

  // Fault-injection layer (inactive unless set_fault_plan installs an
  // effective plan; all its draws come from the seed^"fault" stream).
  sim::FaultPlan fault_;
  std::uint64_t fault_seed_ = 0;

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

  // Per-cycle undirected adjacency (sorted per node, for binary search).
  // Rebuilds iterate the engine's activation list and clear only the nodes
  // touched by the previous rebuild, so quiescent regions cost nothing.
  std::vector<std::vector<ids::NodeIndex>> undirected_;
  std::vector<ids::NodeIndex> undirected_touched_;

  // Physical coordinates (empty unless set_coordinates() was called).
  std::vector<sim::Coordinate> coordinates_;

  // Per-phase counters/timers (wired into engine_ and the lookup/relay
  // paths); mutable because profiling const lookups is telemetry, not
  // state. Parallel stage bodies time onto their own worker lane.
  mutable support::Profiler profiler_;

  // Distribution channels (always on — recording is a few scalar ops).
  // Parallel stage bodies record onto their own worker lane; the lanes
  // merge by bucket sum, so the export is worker-count invariant. Mutable
  // because distributions() re-derives the node-message channel on read.
  mutable support::HistogramSet histograms_;

  // Relay refresh: the election sweep appends the elected self-gateways'
  // requests, ascending (gateway, topic) by construction.
  // group_relay_requests() lays each topic's gateways out contiguously
  // (ascending) and lists every topic under the gateway that walks it;
  // the relay-refresh stage binary-searches its node's walks, emitting
  // link installs through per-worker lanes. A topic's installs therefore
  // come from one worker, in the order a serial pass would emit them.
  struct RelayRequest {
    ids::NodeIndex gateway;
    ids::TopicIndex topic;
  };
  struct RelayInstall {
    ids::TopicIndex topic;
    ids::NodeIndex a;
    ids::NodeIndex b;
  };
  std::vector<RelayRequest> relay_requests_;
  // Topic t's gateways are relay_gateways_[relay_topic_begin_[t],
  // relay_topic_begin_[t + 1]).
  std::vector<ids::NodeIndex> relay_gateways_;
  std::vector<std::uint32_t> relay_topic_begin_;
  // (walking gateway, topic), ascending.
  std::vector<RelayRequest> relay_walks_;
  sim::Outbox<RelayInstall> relay_outbox_;

  // Per-worker buffers for the relay-refresh stage (the shared
  // lookup_scratch_/lookup_result_ pair below serves serial callers only).
  // `marks` records, per node, the remaining route length of an earlier
  // fully installed route of the topic being walked; a mark is valid while
  // its epoch equals `epoch`, which advances once per topic. Scratch, not
  // protocol state: memory_footprint() leaves it out.
  struct RouteMark {
    std::uint32_t epoch = 0;
    std::uint32_t remaining = 0;
  };
  struct LookupCtx {
    std::vector<overlay::RoutingEntry> scratch;
    overlay::LookupResult result;
    std::vector<RouteMark> marks;
    std::uint32_t epoch = 0;
  };
  mutable std::vector<LookupCtx> lookup_ctx_;

  // Scratch buffers, reused to keep the hot paths allocation-free.
  mutable std::vector<overlay::RoutingEntry> lookup_scratch_;
  mutable overlay::LookupResult lookup_result_;  // lookup_cached() buffer
  std::vector<std::vector<NeighborProposal>> election_scratch_;
  // selectNeighbors (Algorithm 4) working set. batch_ owns the SoA
  // candidate pool the SIMD scoring passes stream over; ranked_ receives
  // rank_top_k's (score, pool index) prefix. Members (not locals) so the
  // per-exchange ranking is allocation-free at steady state.
  std::vector<gossip::Descriptor> select_buffer_;
  std::vector<overlay::RoutingEntry> selected_;
  BatchScorer batch_;
  std::vector<std::pair<double, std::size_t>> ranked_;
  // Gateway election: positions of this node's topics, epoch-stamped so the
  // per-neighbor merge is O(|their topics|) with O(1) membership tests.
  std::vector<std::uint32_t> topic_stamp_;
  std::vector<std::size_t> topic_pos_;
  std::uint32_t topic_epoch_ = 0;
  // Next-hop merge buffer of the dissemination (Hops::for_each_next).
  std::vector<ids::NodeIndex> targets_;
};

}  // namespace vitis::core
