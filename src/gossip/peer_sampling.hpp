// Gossip-based peer sampling (Jelasity et al., "Gossip-based peer
// sampling"), the substrate under every overlay in the paper's evaluation
// ("the three systems use the same peer sampling service (Newscast)"). The
// paper notes any implementation works ([6], [23]-[25]); one class runs the
// two it cites, and SamplingPolicy selects only what differs between them:
//
//   * Newscast: the partner is a random view member, and the two sides
//     exchange their whole views (plus their own fresh descriptors) and
//     both keep the freshest entries;
//   * Cyclon (Voulgaris et al., [24]): the partner is the oldest view entry
//     (tail shuffle, bounding staleness), and the two sides swap
//     fixed-size random subsets, the initiator replacing the entries it
//     sent away — better in-degree balance.
//
// The service is simulated network-wide: it owns one PartialView per node.
// Exchanging with a dead peer stands in for a timeout and evicts the peer.
// Exchanges follow the engine's two-phase protocol: prepare() is the
// parallel stage body (own-view writes only — aging, partner pick, timeout
// eviction — plus a thin {initiator, partner} record appended to the
// worker's outbox lane), and apply() is the barriered merge that
// re-executes every recorded two-sided exchange from live state. An
// exchange reads and writes only its two nodes' views, so apply() runs the
// lane-order stream in node-disjoint waves on the engine's pool
// (sim::WaveSchedule): every view sees its exchanges in lane order. Prepare
// draws from the caller's counter-based per-(node, cycle) stream and
// Cyclon's swap forks from (seed, initiator, partner, cycle), so the whole
// exchange schedule is a pure function of the run seed, independent of
// `--run-jobs`.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gossip/view.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/outbox.hpp"
#include "sim/rng.hpp"
#include "sim/wave_schedule.hpp"

namespace vitis::sim {
class FaultPlan;
}  // namespace vitis::sim

namespace vitis::gossip {

enum class SamplingPolicy {
  kNewscast,  // full-view freshest-entries shuffle with a random partner
  kCyclon,    // fixed-size subset swap with the oldest partner
};

class PeerSampling {
 public:
  /// `ring_ids[i]` is node i's position in the identifier space and
  /// `alive[i]` whether node i is online (the engine's liveness bitmap,
  /// frozen during stages). Neither is copied: both must outlive the
  /// service. `seed` roots Cyclon's apply-time subset forks (derive it from
  /// the system seed). Cyclon swaps max(3, view_size / 2) entries, so it
  /// needs view_size >= 3.
  PeerSampling(SamplingPolicy policy, std::span<const ids::RingId> ring_ids,
               std::size_t view_size, const std::vector<bool>& alive,
               std::uint64_t seed);

  /// Bootstrap a joining node with some introduction contacts.
  void init_node(ids::NodeIndex node,
                 std::span<const ids::NodeIndex> bootstrap);

  /// Forget all state of a departed node.
  void remove_node(ids::NodeIndex node);

  /// Parallel stage body: age `node`'s own view, pick an exchange partner
  /// (Newscast: a random entry from `rng`, the node's counter-based stream;
  /// Cyclon: the oldest entry, whose slot is freed), evict a dead partner,
  /// and enqueue the exchange into worker `worker`'s outbox lane. Touches
  /// only node-local state; safe to call concurrently for distinct nodes.
  void prepare(ids::NodeIndex node, sim::Rng& rng, std::size_t worker);

  /// Barriered merge: execute every exchange recorded by prepare() — lanes
  /// in worker order, records in append order (= ascending initiator order
  /// for any worker count) — in node-disjoint waves on the engine's pool,
  /// or inline without an engine.
  void apply(std::size_t cycle);

  /// Run the merge on `engine`'s pool: sizes the outbox lanes and the
  /// per-worker exchange buffers to its run_jobs. Call before the first
  /// prepare(); `engine` must outlive the service.
  void set_engine(sim::CycleEngine& engine);

  /// Appends up to `k` uniformly random descriptors of alive peers from the
  /// view to `out` (not cleared), drawing the subsample from `rng`; the
  /// "fresh list of nodes provided by the underlying peer sampling service"
  /// of Algorithm 2.
  void sample_into(ids::NodeIndex node, std::size_t k,
                   std::vector<Descriptor>& out, sim::Rng& rng) const;

  [[nodiscard]] const PartialView& view(ids::NodeIndex node) const {
    return views_[node];
  }

  /// Fresh self-descriptor for a node.
  [[nodiscard]] Descriptor self_descriptor(ids::NodeIndex node) const {
    return Descriptor{node, ring_ids_[node], 0};
  }

  /// Attach (or detach with nullptr) the fault-injection layer: when set,
  /// every shuffle request passes a deliver() admission check after the
  /// partner-alive check; a dropped request loses the exchange for this
  /// cycle (timeout semantics). Not owned; must outlive prepare() calls.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_ = plan; }

  /// Deterministic logical footprint of the service's per-node state in
  /// bytes (descriptor slab + view handles + exchange buffers; the ring ids
  /// belong to the caller). Depends only on (node count, view size), never
  /// on run history — safe for stdout.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  using Exchange = sim::Exchange;

  // One worker's exchange buffers: the initiator's and the partner's
  // outgoing descriptors. Cache-line aligned, so workers share no line.
  struct alignas(64) Buffers {
    std::vector<Descriptor> mine;
    std::vector<Descriptor> theirs;
  };

  /// Newscast: symmetric freshest-entries merge of the two full views.
  void swap_views(const Exchange& exchange, Buffers& buffers);

  /// Cyclon: swap random subsets, drawn from a fork of the exchange
  /// identity so the replay is independent of how exchanges were recorded.
  void swap_subsets(const Exchange& exchange, std::size_t cycle,
                    Buffers& buffers);

  SamplingPolicy policy_;
  std::span<const ids::RingId> ring_ids_;  // the caller's column
  std::size_t view_size_;
  std::size_t shuffle_size_;  // Cyclon's subset size
  const std::vector<bool>& alive_;  // the engine's bitmap
  std::uint64_t seed_;  // roots Cyclon's apply-time subset forks
  // One contiguous N×view_size descriptor slab; views_ are handles into it
  // (never reallocated after construction — slab pointers must stay valid).
  std::unique_ptr<Descriptor[]> view_slab_;
  std::vector<PartialView> views_;
  const sim::FaultPlan* fault_ = nullptr;  // optional admission (not owned)
  sim::CycleEngine* engine_ = nullptr;     // runs the waves (not owned)
  sim::Outbox<Exchange> outbox_;
  sim::WaveSchedule schedule_;
  // Per-worker exchange buffers, hoisted out of apply() (scratch-buffer
  // convention: the per-cycle path must not allocate in steady state).
  std::vector<Buffers> buffers_;
};

}  // namespace vitis::gossip
