// OverlaySystem — the gossip host Vitis, RVR and OPT share. §IV: "to make
// the three systems comparable they use the same peer sampling service and
// overlay construction protocol". One instance simulates a whole network's
// substrate:
//
//   * the cycle engine with the peer-sampling, t-man and heartbeats stages
//     and a per-cycle maintenance hook;
//   * per-node ring ids, join cycles and bounded routing tables (one
//     contiguous N×capacity routing-entry slab; the tables are handles);
//   * the one copy of each node's subscriptions: the subscription table
//     plus each node's interned SetId;
//   * the per-cycle undirected adjacency and greedy lookups;
//   * the relay trees of Vitis' relay paths and RVR's multicast trees: one
//     relay table per node, the relay-refresh stage that walks the
//     requested routes and the one-pass table rebuild;
//   * churn, crashes and the fault plan;
//   * the flight recorder, profiler, histograms and dissemination loop.
//
// It is also the one system API benches, examples and workload helpers
// hold. A system derives from it and supplies its name(), its publish()
// (the dissemination next hops on the shared loop), its neighbor-selection
// policy and its per-cycle maintenance (which requests relay walks), plus
// hooks for its own per-node state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/graph.hpp"
#include "analysis/health.hpp"
#include "core/config.hpp"
#include "core/relay.hpp"
#include "gossip/peer_sampling.hpp"
#include "gossip/tman.hpp"
#include "overlay/greedy_routing.hpp"
#include "overlay/routing_table.hpp"
#include "pubsub/dissemination.hpp"
#include "pubsub/subscription_registry.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/fault.hpp"
#include "sim/outbox.hpp"
#include "support/check.hpp"
#include "support/histogram.hpp"
#include "support/profiler.hpp"
#include "support/recorder.hpp"
#include "support/run_stats.hpp"

namespace vitis::core {

class PairUtilityCache;

class OverlaySystem {
 public:
  virtual ~OverlaySystem() = default;

  OverlaySystem(const OverlaySystem&) = delete;
  OverlaySystem& operator=(const OverlaySystem&) = delete;

  // --- what differs per system ---------------------------------------------
  [[nodiscard]] virtual std::string name() const = 0;

  /// Publish one event and disseminate it through the current overlay.
  /// Updates metrics() and returns the per-event report.
  virtual pubsub::DisseminationReport publish(ids::TopicIndex topic,
                                              ids::NodeIndex publisher) = 0;

  // --- running and measuring -----------------------------------------------
  /// Advance the gossip/maintenance protocols by `cycles` rounds.
  void run_cycles(std::size_t cycles);
  [[nodiscard]] pubsub::MetricsCollector& metrics() { return metrics_; }
  [[nodiscard]] const pubsub::MetricsCollector& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const pubsub::SubscriptionTable& subscriptions() const {
    return subscriptions_;
  }
  /// Nodes currently online.
  [[nodiscard]] std::size_t alive_count() const {
    return engine_.alive_count();
  }

  /// Per-phase profiler of the cycle engine and the publish path (never
  /// null). Wall times are telemetry-only; calls are deterministic per
  /// (seed, scale). Syncs the interning counters (and the pair_cache()
  /// stats, if any) before returning it, so artifact writers always see
  /// current totals.
  [[nodiscard]] const support::Profiler* profiler() const;

  /// Distribution channels of this run (support::Histogram per
  /// support::Channel; never null). Bucket counts are exact and
  /// deterministic per (seed, scale) — bit-identical across
  /// `--jobs`/`--run-jobs` — and feed the artifact's schema-v7
  /// `distributions` block. Syncs the end-of-run channels (per-node message
  /// totals) before returning the set, mirroring profiler()'s counter sync.
  [[nodiscard]] const support::HistogramSet* distributions() const;

  // --- flight recorder (observability) --------------------------------------
  /// Enable/reconfigure the flight recorder. Off by default and zero-cost
  /// when disabled. The engine then samples the overlay-health time series
  /// on strided cycles; publications trace a Bernoulli-sampled subset from
  /// the dissemination's own RNG stream (never the protocol's rng_, so
  /// observation cannot perturb the run).
  void configure_recorder(const support::RecorderConfig& config);
  /// The flight recorder (never null).
  [[nodiscard]] const support::Recorder* recorder() const {
    return &recorder_;
  }

  /// Take one time-series sample at the current cycle (and run the
  /// invariant monitors when configured). The engine calls this on sampled
  /// cycles; tests call it directly for the allocation audit.
  void observe_sample();

  // --- churn (§III-D) -------------------------------------------------------
  /// A joining node starts with an empty routing table and random bootstrap
  /// contacts; a leaving node's state is dropped, and its peers detect the
  /// silence through heartbeat ages.
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
  /// neighbors must detect the silence through heartbeat staleness.
  /// Idempotent.
  void node_crash(ids::NodeIndex node);

  // --- introspection (tests, benches, analysis) ----------------------------
  [[nodiscard]] const OverlayConfig& base_config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return tables_.size(); }
  [[nodiscard]] std::size_t cycle() const { return engine_.cycle(); }
  [[nodiscard]] ids::RingId ring_id(ids::NodeIndex node) const {
    return ring_ids_[node];
  }
  [[nodiscard]] const overlay::RoutingTable& routing_table(
      ids::NodeIndex node) const {
    return tables_[node];
  }
  [[nodiscard]] const pubsub::SubscriptionRegistry& registry() const {
    return registry_;
  }

  /// Canonical id of `node`'s subscription set in registry(): every node is
  /// interned at construction, and refresh_set_id() re-interns one.
  [[nodiscard]] pubsub::SetId set_id(ids::NodeIndex node) const {
    return set_ids_[node];
  }

  /// Greedy lookup from `origin` toward `target` over live routing state,
  /// into a member buffer: the reference is valid until the next lookup.
  /// Serial callers only.
  [[nodiscard]] const overlay::LookupResult& lookup(ids::NodeIndex origin,
                                                    ids::RingId target) const;

  /// One gossip activation for `node` — a peer-sampling prepare/apply pair
  /// followed by a T-Man pair (each apply a one-exchange wave on the
  /// engine's pool), with the same counter-based RNG forks the cycle engine
  /// would use at the current cycle. Test hook for the allocation audit of
  /// the steady-state step.
  void gossip_step(ids::NodeIndex node);

  /// Undirected snapshot of the current overlay (alive nodes only).
  [[nodiscard]] analysis::Graph overlay_snapshot() const;

  /// Deterministic logical footprint of the per-node protocol state in
  /// bytes: the routing slab, the per-node columns, the relay tables, the
  /// sampling views, the undirected adjacency and the dissemination stamps,
  /// plus the system's own state through extra_memory_bytes(). Live sizes
  /// and fixed slab capacities only (never vector::capacity()), so it is a
  /// pure function of (seed, scale) — safe for stdout; the OS-level
  /// peak_rss_bytes gauge in the bench artifact is the telemetry-side
  /// counterpart.
  [[nodiscard]] std::size_t memory_footprint() const;

  /// Maintenance throughput over the wall time spent inside run_cycles()
  /// (telemetry only, never printed to stdout). 0 before the first cycle.
  [[nodiscard]] double cycles_per_second() const {
    return engine_.cycles_per_second();
  }

  /// Cycle-engine worker count (`--run-jobs`); output is bit-identical for
  /// any value, so this is telemetry only.
  [[nodiscard]] std::size_t run_jobs() const {
    return engine_.run_jobs();
  }

  /// Per-stage busy/span accounting of the sharded engine (telemetry).
  [[nodiscard]] std::vector<support::ParallelPhaseStats> parallel_phases()
      const;

 protected:
  /// Wires the shared substrate: the sampling service, T-Man, and the
  /// peer-sampling, t-man and heartbeats stages followed by the maintenance
  /// hook, and interns every node's subscription set (see set_id()). The
  /// system then adds its own stages and calls start().
  OverlaySystem(const OverlayConfig& config,
                pubsub::SubscriptionTable subscriptions, std::uint64_t seed);

  /// Last construction step: registers the fault-crashes hook after the
  /// system's own stages and, with `start_online`, boots every node with
  /// random bootstrap contacts (otherwise all nodes start offline and join
  /// through node_join()).
  void start(bool start_online);

  // --- relay trees ---------------------------------------------------------
  /// Registers the relay-refresh stage right after the maintenance hook
  /// (call from the constructor, before start()). Each cycle it walks the
  /// routes request_relay() queued, links both ends of every hop for the
  /// topic and ages every alive node's relay table once: a link expires
  /// `ttl` rounds after its last refresh, and a lost setup hop is retried
  /// `retransmit` times.
  void add_relay_refresh(std::uint32_t ttl, std::uint32_t retransmit);

  /// Queue a walk for this cycle's relay refresh: `node` routes greedily
  /// toward hash(topic) and every hop of a converged route is linked for
  /// the topic. Called from maintenance_extra() in ascending (node, topic)
  /// order.
  void request_relay(ids::NodeIndex node, ids::TopicIndex topic) {
    VITIS_DCHECK(relay_requests_.empty() ||
                 relay_requests_.back().requester < node ||
                 (relay_requests_.back().requester == node &&
                  relay_requests_.back().topic < topic));
    relay_requests_.push_back(RelayRequest{node, topic});
  }

  /// `node`'s relay table (systems that called add_relay_refresh() only).
  [[nodiscard]] const RelayTable& relay_table(ids::NodeIndex node) const {
    return relays_[node];
  }

  // --- system hooks ----------------------------------------------------------
  /// Neighbor-selection policy, called from T-Man's merge. Exchanges of one
  /// wave run concurrently, so a policy writes only `table` and worker
  /// `worker`'s scratch (select_ring_links() hands out the host's), and
  /// reads only frozen state: subscriptions, SetIds, ring ids, liveness.
  /// `rng` is the calling exchange's deterministic stream; policies that
  /// draw (small-world targets) must use it, never a shared member stream.
  virtual void select_neighbors(
      ids::NodeIndex self, std::span<const gossip::Descriptor> candidates,
      overlay::RoutingTable& table, sim::Rng& rng, std::size_t worker) = 0;

  /// Runs on the calling thread after each wave of T-Man exchanges, before
  /// the next wave starts (Vitis commits its pair memo's deferred inserts).
  virtual void end_selection_wave() {}

  /// Per-cycle maintenance after the adjacency rebuild, in the maintenance
  /// hook (Vitis' election sweep, RVR's staggered resubscriptions); it
  /// queues the cycle's relay walks. It may shard work with
  /// engine().run_parallel().
  virtual void maintenance_extra() {}

  /// System-specific invariant monitors per alive node, after the shared
  /// ring and table-bound checks.
  virtual void check_node_invariants(ids::NodeIndex node) const {
    (void)node;
  }

  /// Hooks for system state on churn, after the host cleared the node's
  /// routing and relay tables. on_join runs before the sampling view is
  /// seeded.
  virtual void on_join(ids::NodeIndex node) { (void)node; }
  virtual void on_leave(ids::NodeIndex node) { (void)node; }

  /// The system's pairwise-score memo, whose stats feed the utility-cache
  /// counters and hit-rate gauge; nullptr (the default) leaves the counters
  /// at zero and the gauge NaN (JSON null).
  [[nodiscard]] virtual const PairUtilityCache* pair_cache() const {
    return nullptr;
  }

  /// The system's contribution to memory_footprint(); same live-sizes-only
  /// contract.
  [[nodiscard]] virtual std::size_t extra_memory_bytes() const { return 0; }

  // --- neighbor-selection working set ---------------------------------------
  /// One worker's selection working set: the candidates not taken yet and
  /// the entries selected so far. Members, so selection is allocation-free
  /// at steady state; cache-line aligned, so workers share no line.
  class alignas(64) Selection {
   public:
    /// Candidates not taken yet.
    [[nodiscard]] std::span<const gossip::Descriptor> unselected() const {
      return candidates_;
    }
    [[nodiscard]] std::size_t size() const { return selected_.size(); }
    /// Select unselected()[index] as a `kind` link and drop it from the
    /// candidates.
    void take(std::size_t index, overlay::LinkKind kind);
    /// Select unselected()[index] as a `kind` link, keeping the candidate
    /// indices stable.
    void add(std::size_t index, overlay::LinkKind kind);
    void install(overlay::RoutingTable& table) const {
      table.assign(std::span<const overlay::RoutingEntry>(selected_));
    }

   private:
    friend class OverlaySystem;
    std::vector<gossip::Descriptor> candidates_;
    std::vector<overlay::RoutingEntry> selected_;
  };

  /// Shared head of the ring-aware policies (Algorithm 4 lines 2-7, RVR's
  /// Symphony selection): loads `candidates` into worker `worker`'s
  /// working set and takes the best successor and predecessor. The policy
  /// continues with the returned Selection's take()/add() and install().
  Selection& select_ring_links(ids::NodeIndex self,
                               std::span<const gossip::Descriptor> candidates,
                               std::size_t worker);

  // --- dissemination -------------------------------------------------------
  /// Open a publication on the shared forwarding loop: the publisher is
  /// visited, and alive subscribers past their join grace are expected.
  [[nodiscard]] pubsub::Dissemination& begin_publish(ids::TopicIndex topic,
                                                     ids::NodeIndex publisher);

  /// The admission half of a dissemination Net: the fault plan's
  /// publication drop, and no hop penalty (the baselines take no delay
  /// accounting; Vitis adds its own).
  struct FaultAdmission {
    OverlaySystem& system;

    [[nodiscard]] bool admit(ids::NodeIndex from, ids::NodeIndex to) const {
      return system.fault_deliver(from, to, sim::MessageKind::kPublication);
    }
    [[nodiscard]] std::uint32_t penalty(ids::NodeIndex, ids::NodeIndex) const {
      return 0;
    }
  };

  /// The one route walk (lookup(), the relay refresh): a greedy lookup
  /// over the live routing tables into `result`, timed as one `routing`
  /// call on `worker`'s profiler lane. With `marks` the walk ends at the
  /// first node whose remaining route it marks.
  void lookup_into(ids::NodeIndex origin, ids::RingId target,
                   overlay::LookupResult& result,
                   const overlay::RouteMarks* marks, std::size_t worker) const;

  /// Sorted alive undirected neighbors, rebuilt once per cycle.
  [[nodiscard]] const std::vector<ids::NodeIndex>& undirected(
      ids::NodeIndex node) const {
    return undirected_[node];
  }

  [[nodiscard]] sim::CycleEngine& engine() { return engine_; }
  [[nodiscard]] const sim::CycleEngine& engine() const { return engine_; }
  [[nodiscard]] support::Profiler& profiler_mut() const { return profiler_; }
  [[nodiscard]] pubsub::SubscriptionTable& subscriptions_mut() {
    return subscriptions_;
  }
  /// Re-intern `node`'s subscription set after subscriptions_mut() changed
  /// it.
  void refresh_set_id(ids::NodeIndex node);

  // --- fault admission helpers for system dissemination paths -------------
  [[nodiscard]] bool fault_active() const { return fault_.active(); }
  [[nodiscard]] bool fault_deliver(ids::NodeIndex from, ids::NodeIndex to,
                                   sim::MessageKind kind) {
    return !fault_.active() || fault_.deliver(from, to, kind);
  }

 private:
  void cycle_maintenance();
  void check_invariants() const;
  [[nodiscard]] std::size_t relay_link_count() const;

  // Counting-sort the cycle's relay requests by topic (requesters ascending
  // within a topic) and hand each topic to the requester whose ring id is
  // closest to hash(t), which walks all of the topic's routes.
  void group_relay_requests();

  // Stage body: walk the relay routes of every topic handed to `node` —
  // greedy lookups over frozen routing state plus counter-based fault
  // admission, requesters ascending — emitting each topic's link installs
  // as one run of the worker's outbox lane. Without a fault plan a walk
  // ends where it meets an earlier route of the same topic (see DESIGN.md
  // "One relay tree per topic per cycle").
  void refresh_relays(ids::NodeIndex node, std::size_t worker);

  // The stage's sharded merge: bucket the cycle's install endpoints that
  // `worker` owns by owner, topics ascending, then rebuild the relay table
  // of every alive node it owns once — aging it and applying its installs
  // in one pass (RelayTable::rebuild).
  void apply_relay_installs(std::size_t worker, sim::NodeRange owned);

  // One relay-setup hop under the fault plan, with relay_retransmit_ extra
  // attempts. Always true without an active plan. `nonce_base`/`hop` key
  // the admission draws (explicit counter nonces — this runs inside a
  // parallel stage).
  [[nodiscard]] bool relay_hop_delivered(ids::NodeIndex src,
                                         ids::NodeIndex dst,
                                         std::uint64_t nonce_base,
                                         std::uint32_t hop) const;
  void refresh_heartbeats(ids::NodeIndex node, std::size_t worker);
  void rebuild_undirected();

  // Up to `count` distinct random alive nodes other than `exclude`, drawn
  // into contacts_ (reused, so a join allocates nothing).
  std::span<const ids::NodeIndex> random_alive_contacts(
      std::size_t count, ids::NodeIndex exclude);

  OverlayConfig config_;
  pubsub::SubscriptionTable subscriptions_;
  pubsub::SubscriptionRegistry registry_;  // hash-consed subscription sets
  std::vector<pubsub::SetId> set_ids_;     // see set_id()
  sim::CycleEngine engine_;
  std::vector<ids::RingId> ring_ids_;
  // One contiguous routing-entry slab shared by all per-node tables (the
  // RoutingTable objects are handles into it, never reallocated after
  // construction — slab pointers and T-Man's span over tables_ must stay
  // valid).
  std::size_t rt_capacity_ = 0;
  std::unique_ptr<overlay::RoutingEntry[]> rt_slab_;
  std::vector<overlay::RoutingTable> tables_;
  std::vector<std::uint32_t> join_cycles_;
  std::unique_ptr<gossip::PeerSampling> sampling_;
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

  // Per-phase counters/timers (wired into engine_ and the lookup paths);
  // mutable because profiling const lookups is telemetry, not state.
  // Parallel stage bodies time onto their own worker lane.
  mutable support::Profiler profiler_;

  // Distribution channels (always on — recording is a few scalar ops).
  // Parallel stage bodies record onto their own worker lane; the lanes
  // merge by bucket sum, so the export is worker-count invariant. Mutable
  // because distributions() re-derives the node-message channel on read.
  mutable support::HistogramSet histograms_;

  // Per-cycle undirected adjacency (sorted per node, for binary search).
  // Rebuilds iterate the engine's activation list and clear only the nodes
  // touched by the previous rebuild, so quiescent regions cost nothing.
  std::vector<std::vector<ids::NodeIndex>> undirected_;
  std::vector<ids::NodeIndex> undirected_touched_;

  // Relay trees: one table per node, empty unless add_relay_refresh() ran.
  std::vector<RelayTable> relays_;
  std::uint32_t relay_ttl_ = 0;
  std::uint32_t relay_retransmit_ = 0;

  // Relay refresh: the maintenance appends the cycle's requests, ascending
  // (requester, topic). group_relay_requests() lays each topic's requesters
  // out contiguously (ascending) and lists every topic under the requester
  // that walks it; the relay-refresh stage binary-searches its node's
  // walks, emitting link installs through per-worker lanes. A topic's
  // installs therefore form one run of one lane, in the order a serial pass
  // would emit them.
  struct RelayRequest {
    ids::NodeIndex requester;
    ids::TopicIndex topic;
  };
  struct RelayInstall {
    ids::TopicIndex topic;
    ids::NodeIndex a;
    ids::NodeIndex b;
  };
  std::vector<RelayRequest> relay_requests_;
  // Topic t's requesters are relay_requesters_[relay_topic_begin_[t],
  // relay_topic_begin_[t + 1]).
  std::vector<ids::NodeIndex> relay_requesters_;
  std::vector<std::uint32_t> relay_topic_begin_;
  // (walking requester, topic), ascending.
  std::vector<RelayRequest> relay_walks_;
  sim::Outbox<RelayInstall> relay_outbox_;
  // Where topic t's installs of this cycle sit: records [begin, end) of
  // lane `lane` (valid for the topics walked this cycle).
  struct InstallRun {
    std::uint32_t lane = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  std::vector<InstallRun> relay_runs_;
  // The apply's counting sort, per node: the number of endpoints the node
  // owns, then its bucket offset. Zero between cycles; each worker writes
  // only the nodes it owns.
  std::vector<std::uint32_t> relay_slot_;
  // Per-worker apply buffers: `installs` holds the buckets of the worker's
  // owners back to back. Cache-line aligned, so workers never share a line
  // of them.
  struct alignas(64) RelayApply {
    std::vector<RelayTable::Install> installs;
    RelayTable::Scratch scratch;
  };
  std::vector<RelayApply> relay_apply_;
  // Per-worker buffers for the relay-refresh stage (lookup_result_ serves
  // serial callers only). `marks` holds the remaining route lengths of the
  // fully installed routes of the topic being walked.
  struct alignas(64) LookupCtx {
    overlay::LookupResult result;
    overlay::RouteMarks marks;
  };
  std::vector<LookupCtx> lookup_ctx_;

  // Scratch buffers, reused to keep the hot paths allocation-free; like
  // the relay refresh's, memory_footprint() leaves them out.
  mutable overlay::LookupResult lookup_result_;  // lookup() buffer
  std::vector<Selection> selections_;            // per T-Man wave worker
  std::vector<ids::NodeIndex> contacts_;
};

}  // namespace vitis::core
