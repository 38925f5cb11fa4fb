// Shared scaffolding for the two baseline systems of §IV:
//
//   * RVR — structured rendezvous routing (Scribe/Bayeux-equivalent),
//   * OPT — unstructured overlay-per-topic (SpiderCast-like),
//
// both of which run the same Newscast peer sampling and T-Man construction
// as Vitis ("to make the three systems comparable they use the same peer
// sampling service and overlay construction protocol") and differ only in
// their neighbor-selection policy, per-cycle maintenance, and dissemination.
// Vitis itself lives in core/ with richer per-node state (profiles,
// elections, relays) and does not reuse this base.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/graph.hpp"
#include "analysis/health.hpp"
#include "gossip/sampling_service.hpp"
#include "gossip/tman.hpp"
#include "overlay/greedy_routing.hpp"
#include "overlay/routing_table.hpp"
#include "pubsub/dissemination.hpp"
#include "pubsub/subscription_registry.hpp"
#include "pubsub/system.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/fault.hpp"

namespace vitis::baselines {

struct BaselineConfig {
  std::size_t routing_table_size = 15;
  std::size_t view_size = 20;
  std::size_t sample_size = 10;
  std::uint32_t staleness_threshold = 8;
  std::size_t bootstrap_contacts = 5;
  std::size_t join_grace_cycles = 1;
  gossip::SamplingPolicy sampling = gossip::SamplingPolicy::kNewscast;
  std::size_t lookup_hop_budget = 128;

  /// Worker threads of the intra-run cycle engine (`--run-jobs`); output is
  /// bit-identical for any value — see core::VitisConfig::run_jobs.
  std::size_t run_jobs = 1;

  void validate() const;
};

class BaselineSystem : public pubsub::PubSubSystem {
 public:
  // --- PubSubSystem --------------------------------------------------------
  void run_cycles(std::size_t cycles) override;
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
  /// Syncs the interning counters (and, via sync_cache_counters, any
  /// subclass cache stats) into the profiler before returning it.
  [[nodiscard]] const support::Profiler* profiler() const override;

  /// Syncs the end-of-run channels (per-node message totals) before
  /// returning the distribution set, mirroring profiler()'s counter sync.
  [[nodiscard]] const support::HistogramSet* distributions() const override;

  // --- flight recorder (observability) --------------------------------------
  /// Same contract as VitisSystem: trace sampling draws from a dedicated
  /// RNG stream, so observation never perturbs the protocol rng().
  void configure_recorder(const support::RecorderConfig& config) override;
  [[nodiscard]] const support::Recorder* recorder() const override {
    return &recorder_;
  }

  /// One time-series sample at the current cycle (plus invariant monitors
  /// when configured); engine-driven on sampled cycles, callable by tests.
  void observe_sample();

  // --- churn ---------------------------------------------------------------
  void node_join(ids::NodeIndex node);
  void node_leave(ids::NodeIndex node);
  [[nodiscard]] bool is_alive(ids::NodeIndex node) const {
    return engine_.is_alive(node);
  }

  // --- fault injection (lossy-network model) -------------------------------
  /// Same contract as VitisSystem::set_fault_plan: a dedicated
  /// seed^"fault" stream, byte-identical runs while no mechanism is
  /// active. The baselines take the hits without recovery mechanisms —
  /// that asymmetry is the point of the comparison.
  void set_fault_plan(const sim::FaultConfig& config);
  [[nodiscard]] const sim::FaultPlan& fault_plan() const { return fault_; }

  /// Crash-without-leave: flips the alive bit only; tables, trees and the
  /// peers' references survive until heartbeats expire them. Idempotent.
  void node_crash(ids::NodeIndex node);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const BaselineConfig& base_config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return tables_.size(); }
  [[nodiscard]] std::size_t cycle() const { return engine_.cycle(); }
  [[nodiscard]] ids::RingId ring_id(ids::NodeIndex node) const {
    return ring_ids_[node];
  }
  [[nodiscard]] const overlay::RoutingTable& routing_table(
      ids::NodeIndex node) const {
    return tables_[node];
  }
  [[nodiscard]] overlay::LookupResult lookup(ids::NodeIndex origin,
                                             ids::RingId target) const;
  [[nodiscard]] analysis::Graph overlay_snapshot() const;

  /// Deterministic logical footprint of the shared baseline state in bytes
  /// (routing slab, sampling views, adjacency; live sizes only — see
  /// VitisSystem::memory_footprint for the contract). Subclass state rides
  /// on top through extra_memory_bytes().
  [[nodiscard]] std::size_t memory_footprint() const override;

  /// Maintenance throughput over run_cycles() wall time (telemetry only).
  [[nodiscard]] double cycles_per_second() const override {
    return engine_.cycles_per_second();
  }

  /// Cycle-engine worker count (`--run-jobs`); telemetry only.
  [[nodiscard]] std::size_t run_jobs() const override {
    return engine_.run_jobs();
  }

  /// Per-stage busy/span accounting of the sharded engine (telemetry).
  [[nodiscard]] std::vector<support::ParallelPhaseStats> parallel_phases()
      const override;

 protected:
  BaselineSystem(BaselineConfig config,
                 pubsub::SubscriptionTable subscriptions, std::uint64_t seed,
                 bool start_online);

  /// Neighbor-selection policy (the only structural difference between the
  /// baselines). `rng` is the calling T-Man exchange's deterministic
  /// stream; policies that draw (RVR's small-world targets) must use it,
  /// never a shared member stream.
  virtual void select_neighbors(
      ids::NodeIndex self, std::span<const gossip::Descriptor> candidates,
      overlay::RoutingTable& table, sim::Rng& rng) = 0;

  /// Per-cycle maintenance after heartbeats and adjacency rebuild (tree
  /// refresh for RVR; nothing for OPT).
  virtual void maintenance_extra() {}

  /// Hooks for subclass state on churn.
  virtual void on_join(ids::NodeIndex node) { (void)node; }
  virtual void on_leave(ids::NodeIndex node) { (void)node; }

  /// Relay-state size for the kRelayLinks gauge (multicast-tree links for
  /// RVR; OPT keeps no relay state).
  [[nodiscard]] virtual std::size_t relay_link_count() const { return 0; }

  /// Subclass hook: publish pairwise-cache counters into `profiler` (OPT's
  /// coverage-similarity cache; the default has none).
  virtual void sync_cache_counters(support::Profiler& profiler) const {
    (void)profiler;
  }

  /// Cumulative pairwise-cache hit fraction for the recorder gauge; NaN
  /// (JSON null) for systems without a cache.
  [[nodiscard]] virtual double cache_hit_rate() const;

  /// Subclass contribution to memory_footprint() (RVR's multicast trees,
  /// OPT's per-topic state); same live-sizes-only contract.
  [[nodiscard]] virtual std::size_t extra_memory_bytes() const { return 0; }

  // --- dissemination -------------------------------------------------------
  /// Open a publication on the shared forwarding loop: the publisher is
  /// visited, and alive subscribers past their join grace are expected.
  [[nodiscard]] pubsub::Dissemination& begin_publish(ids::TopicIndex topic,
                                                     ids::NodeIndex publisher);

  /// The admission half of a baseline's dissemination Net: the fault
  /// plan's publication drop, and no hop penalty (the baselines take no
  /// delay accounting).
  struct FaultAdmission {
    BaselineSystem& system;

    [[nodiscard]] bool admit(ids::NodeIndex from, ids::NodeIndex to) const {
      return system.fault_deliver(from, to, sim::MessageKind::kPublication);
    }
    [[nodiscard]] std::uint32_t penalty(ids::NodeIndex, ids::NodeIndex) const {
      return 0;
    }
  };

  /// Sorted alive undirected neighbors, rebuilt once per cycle.
  [[nodiscard]] const std::vector<ids::NodeIndex>& undirected(
      ids::NodeIndex node) const {
    return undirected_[node];
  }

  [[nodiscard]] std::vector<ids::NodeIndex> random_alive_contacts(
      std::size_t count, ids::NodeIndex exclude);

  [[nodiscard]] sim::CycleEngine& engine() { return engine_; }
  [[nodiscard]] const sim::CycleEngine& engine() const { return engine_; }
  [[nodiscard]] support::Profiler& profiler_mut() const { return profiler_; }
  /// Distribution channels for subclass dissemination paths (RVR records
  /// its rendezvous-route lengths here); serial callers use lane 0.
  [[nodiscard]] support::HistogramSet& histograms_mut() const {
    return histograms_;
  }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] overlay::RoutingTable& table(ids::NodeIndex node) {
    return tables_[node];
  }
  [[nodiscard]] std::size_t join_cycle(ids::NodeIndex node) const {
    return join_cycle_[node];
  }

  /// Canonical id of `node`'s (static) subscription set, interned once at
  /// construction.
  [[nodiscard]] pubsub::SetId set_id(ids::NodeIndex node) const {
    return set_ids_[node];
  }

  // --- fault admission helpers for subclass dissemination paths -----------
  [[nodiscard]] bool fault_active() const { return fault_.active(); }
  [[nodiscard]] bool fault_deliver(ids::NodeIndex from, ids::NodeIndex to,
                                   sim::MessageKind kind) {
    return !fault_.active() || fault_.deliver(from, to, kind);
  }

 private:
  void cycle_maintenance();
  void check_invariants() const;
  void refresh_heartbeats(ids::NodeIndex node, std::size_t worker);
  void rebuild_undirected();

  BaselineConfig config_;
  pubsub::SubscriptionTable subscriptions_;
  pubsub::SubscriptionRegistry registry_;  // hash-consed subscription sets
  std::vector<pubsub::SetId> set_ids_;     // per node, interned in the ctor
  sim::CycleEngine engine_;
  std::vector<ids::RingId> ring_ids_;
  // One contiguous routing-entry slab shared by all per-node tables (the
  // RoutingTable objects are handles into it), mirroring core::NodeArena.
  std::size_t rt_capacity_ = 0;
  std::unique_ptr<overlay::RoutingEntry[]> rt_slab_;
  std::vector<overlay::RoutingTable> tables_;
  std::vector<std::size_t> join_cycle_;
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
  // effective plan; draws only from the seed^"fault" stream).
  sim::FaultPlan fault_;
  std::uint64_t fault_seed_ = 0;

  // Per-phase telemetry (wall times are non-deterministic; call counts are
  // deterministic per (seed, scale)). Mutable: profiling const lookups is
  // telemetry, not protocol state.
  mutable support::Profiler profiler_;

  // Distribution channels (always on; lane-merged on export, so the counts
  // are worker-count invariant — see core::VitisSystem::histograms_).
  mutable support::HistogramSet histograms_;

  // Adjacency rebuilds iterate the engine's activation list and clear only
  // the nodes touched by the previous rebuild (see VitisSystem).
  std::vector<std::vector<ids::NodeIndex>> undirected_;
  std::vector<ids::NodeIndex> undirected_touched_;
  mutable std::vector<overlay::RoutingEntry> lookup_scratch_;
};

}  // namespace vitis::baselines
