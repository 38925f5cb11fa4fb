// Gossip-based peer sampling service (Newscast-style, per Jelasity et al.),
// the substrate under every overlay in the paper's evaluation ("the three
// systems use the same peer sampling service (Newscast)").
//
// The service is simulated network-wide: it owns one PartialView per node.
// Each cycle a node exchanges its view (plus its own fresh descriptor) with
// a random view member and both keep the freshest entries. Exchanging with a
// dead peer stands in for a timeout and evicts the peer. The exchange is
// split per the engine's two-phase protocol: prepare() does the node-local
// half (aging, partner pick, timeout eviction) and records the exchange;
// apply() replays the symmetric view swap serially in deterministic order.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gossip/sampling_service.hpp"
#include "gossip/view.hpp"
#include "sim/outbox.hpp"
#include "sim/rng.hpp"

namespace vitis::gossip {

class PeerSamplingService final : public SamplingService {
 public:
  /// `ring_ids[i]` is node i's position in the identifier space (not
  /// copied: the caller's column must outlive the service).
  /// `is_alive(i)` reports whether node i is currently online.
  PeerSamplingService(std::span<const ids::RingId> ring_ids,
                      std::size_t view_size,
                      std::function<bool(ids::NodeIndex)> is_alive);

  /// Bootstrap a joining node with some introduction contacts.
  void init_node(ids::NodeIndex node,
                 std::span<const ids::NodeIndex> bootstrap) override;

  /// Forget all state of a departed node.
  void remove_node(ids::NodeIndex node) override;

  /// Stage body of one Newscast shuffle: age the view, pick a partner from
  /// the node's stream, evict on timeout, and enqueue the exchange.
  void prepare(ids::NodeIndex node, sim::Rng& rng,
               std::size_t worker) override;

  /// Replay the recorded shuffles (symmetric freshest-entries merges) from
  /// live state; needs no RNG — the merge is deterministic.
  void apply(std::size_t cycle) override;

  void set_workers(std::size_t workers) override {
    outbox_.configure(workers);
  }

  /// Appends up to `k` uniformly random descriptors of alive peers from the
  /// view; the "fresh list of nodes provided by the underlying peer
  /// sampling service" of Algorithm 2.
  void sample_into(ids::NodeIndex node, std::size_t k,
                   std::vector<Descriptor>& out, sim::Rng& rng) override;

  [[nodiscard]] const PartialView& view(ids::NodeIndex node) const override {
    return views_[node];
  }

  [[nodiscard]] std::size_t view_size() const { return view_size_; }

  void set_fault_plan(const sim::FaultPlan* plan) override { fault_ = plan; }

  [[nodiscard]] std::size_t memory_bytes() const override;

  /// Fresh self-descriptor for a node.
  [[nodiscard]] Descriptor self_descriptor(
      ids::NodeIndex node) const override {
    return Descriptor{node, ring_ids_[node], 0};
  }

 private:
  struct Exchange {
    ids::NodeIndex initiator = ids::kInvalidNode;
    ids::NodeIndex partner = ids::kInvalidNode;
  };

  std::span<const ids::RingId> ring_ids_;  // the caller's column
  std::size_t view_size_;
  std::function<bool(ids::NodeIndex)> is_alive_;
  // One contiguous N×view_size descriptor slab; views_ are handles into it
  // (never reallocated after construction — slab pointers must stay valid).
  std::unique_ptr<Descriptor[]> view_slab_;
  std::vector<PartialView> views_;
  const sim::FaultPlan* fault_ = nullptr;  // optional admission (not owned)
  sim::Outbox<Exchange> outbox_;
  // Exchange snapshots, hoisted out of apply() (scratch-buffer convention:
  // the per-cycle path must not allocate in steady state).
  std::vector<Descriptor> mine_scratch_;
  std::vector<Descriptor> theirs_scratch_;
};

}  // namespace vitis::gossip
