// T-Man topology construction (Jelasity & Babaoglu), the overlay
// construction protocol shared by Vitis, RVR and OPT in the paper's
// evaluation. Implements Algorithms 2 (active thread) and 3 (passive
// thread): each round a node merges its routing table with a random
// neighbor's and a fresh peer-sampling batch, then a pluggable
// `selectNeighbors` policy (Algorithm 4 for Vitis) rebuilds the table.
//
// Split per the engine's two-phase protocol: prepare() picks the exchange
// partner from the node's counter-based stream (own-table writes only) and
// records the exchange; apply() replays every recorded exchange serially in
// deterministic lane order, forking each exchange's draws — buffer
// subsampling and the selection policy's randomness — from
// (seed, initiator, partner, cycle). Liveness is read from the engine's
// bitmap, which is frozen during stages.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gossip/peer_sampling.hpp"
#include "overlay/routing_table.hpp"
#include "sim/outbox.hpp"
#include "sim/rng.hpp"

namespace vitis::gossip {

class TManProtocol {
 public:
  /// Rebuilds `table` for node `self` from the merged candidate buffer.
  /// Candidates never include `self` and are unique by node. `rng` is the
  /// exchange's deterministic stream (small-world draws etc.).
  using SelectFn = std::function<void(ids::NodeIndex self,
                                      std::span<const Descriptor> candidates,
                                      overlay::RoutingTable& table,
                                      sim::Rng& rng)>;

  struct Config {
    std::size_t sample_size = 10;  // fresh descriptors drawn per exchange
  };

  /// `tables[n]` is node n's routing table and `alive[n]` whether node n
  /// is online (the engine's liveness bitmap); the span, `sampling` and
  /// `alive` must stay valid for the protocol's lifetime. `seed` roots the
  /// apply-time per-exchange RNG forks (derive from the system seed).
  TManProtocol(std::span<overlay::RoutingTable> tables,
               const PeerSampling& sampling, const std::vector<bool>& alive,
               SelectFn select, Config config, std::uint64_t seed);

  /// Stage body of one active exchange: pick a random routing-table
  /// neighbor (falling back to the peer-sampling view when the table is
  /// empty), screen liveness/faults, and enqueue the exchange. Touches only
  /// `node`'s own table.
  void prepare(ids::NodeIndex node, sim::Rng& rng, std::size_t worker);

  /// Serial barriered merge: replay the recorded exchanges — buffer
  /// construction and two-sided selection — from live state.
  void apply(std::size_t cycle);

  /// Size the per-worker outbox lanes and prepare scratch (>= 1).
  void set_workers(std::size_t workers);

  /// The merged candidate buffer node would build this instant from a
  /// peer-sampling batch `sample` (exposed for tests): `sample` ∪ node's
  /// routing table, without `exclude` and dead nodes, unique by node.
  [[nodiscard]] std::vector<Descriptor> build_buffer(
      ids::NodeIndex node, ids::NodeIndex exclude,
      std::span<const Descriptor> sample) const;

  /// Attach (or detach with nullptr) the fault-injection layer: each
  /// exchange request passes a deliver() admission check after the
  /// partner-alive check; a dropped request loses the exchange for this
  /// cycle on both ends. Not owned; must outlive prepare() calls.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_ = plan; }

 private:
  struct Exchange {
    ids::NodeIndex initiator = ids::kInvalidNode;
    ids::NodeIndex partner = ids::kInvalidNode;
  };

  /// Opens a fresh dedup scope on `buffer`: clears it and advances the
  /// epoch so the seen-array forgets every previous membership in O(1).
  void begin_buffer(std::vector<Descriptor>& buffer) const;

  /// O(1) amortized merge: skips `exclude` and dead nodes; a duplicate
  /// keeps the youngest age (epoch-stamped seen-array, not a linear scan).
  void merge_unique(std::vector<Descriptor>& buffer, const Descriptor& d,
                    ids::NodeIndex exclude) const;

  void build_buffer_into(ids::NodeIndex node, ids::NodeIndex exclude,
                         std::span<const Descriptor> sample,
                         std::vector<Descriptor>& buffer) const;

  std::span<overlay::RoutingTable> tables_;
  const PeerSampling* sampling_;
  const std::vector<bool>& alive_;  // the engine's bitmap
  SelectFn select_;
  Config config_;
  std::uint64_t seed_;  // roots the apply-time per-exchange forks
  const sim::FaultPlan* fault_ = nullptr;  // optional admission (not owned)
  sim::Outbox<Exchange> outbox_;
  // Per-worker scratch for prepare()'s sampling fallback (bootstrap path).
  std::vector<std::vector<Descriptor>> prepare_scratch_;

  // Dedup seen-array, indexed by node: `seen_stamp_[n] == seen_epoch_`
  // means n is already in the buffer opened by the last begin_buffer(),
  // at position `seen_slot_[n]`. Grown on demand; mutable because
  // build_buffer is logically const. Touched only from serial contexts
  // (apply and test helpers), never from prepare().
  mutable std::vector<std::uint32_t> seen_stamp_;
  mutable std::vector<std::size_t> seen_slot_;
  mutable std::uint32_t seen_epoch_ = 0;

  // Exchange buffers, hoisted out of apply() (allocation-free steady
  // state); serial-context only, like the seen-array.
  std::vector<Descriptor> sample_;
  std::vector<Descriptor> mine_;
  std::vector<Descriptor> theirs_;
  std::vector<Descriptor> for_me_;
  std::vector<Descriptor> for_partner_;
};

}  // namespace vitis::gossip
