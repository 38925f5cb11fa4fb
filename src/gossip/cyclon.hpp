// Cyclon-style peer sampling (Voulgaris et al.), the second of the sampling
// services the paper cites ([24]). Differs from the Newscast-style shuffle
// in peer_sampling.hpp in two ways that improve in-degree balance:
//
//   * the exchange partner is the *oldest* view entry (tail shuffle), and
//   * the two sides swap fixed-size random subsets rather than full views,
//     with the initiator replacing the entries it sent away.
//
// Exposes the same surface as PeerSamplingService so overlay systems can be
// configured with either implementation (core::SamplingPolicy). prepare()
// is node-local (aging, oldest-partner pick + slot free, timeout); apply()
// replays the subset swaps serially, drawing each swap's two subset
// shuffles from a counter-based fork of (seed, initiator, partner, cycle).
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

class CyclonSampling final : public SamplingService {
 public:
  /// `ring_ids` is not copied: the caller's column must outlive the
  /// service.
  CyclonSampling(std::span<const ids::RingId> ring_ids, std::size_t view_size,
                 std::size_t shuffle_size,
                 std::function<bool(ids::NodeIndex)> is_alive,
                 std::uint64_t seed);

  void init_node(ids::NodeIndex node,
                 std::span<const ids::NodeIndex> bootstrap) override;
  void remove_node(ids::NodeIndex node) override;

  /// Stage body of one Cyclon shuffle: age, pick + free the oldest entry,
  /// and enqueue the exchange past the timeout/fault screens.
  void prepare(ids::NodeIndex node, sim::Rng& rng,
               std::size_t worker) override;

  /// Replay the recorded subset swaps from live state; each swap's random
  /// subsets fork from (seed, initiator, partner, cycle).
  void apply(std::size_t cycle) override;

  void set_workers(std::size_t workers) override {
    outbox_.configure(workers);
  }

  /// Appends up to `k` random alive descriptors from the node's view.
  void sample_into(ids::NodeIndex node, std::size_t k,
                   std::vector<Descriptor>& out, sim::Rng& rng) override;

  [[nodiscard]] const PartialView& view(ids::NodeIndex node) const override {
    return views_[node];
  }
  [[nodiscard]] Descriptor self_descriptor(
      ids::NodeIndex node) const override {
    return Descriptor{node, ring_ids_[node], 0};
  }
  [[nodiscard]] std::size_t shuffle_size() const { return shuffle_size_; }

  void set_fault_plan(const sim::FaultPlan* plan) override { fault_ = plan; }

  [[nodiscard]] std::size_t memory_bytes() const override;

 private:
  struct Exchange {
    ids::NodeIndex initiator = ids::kInvalidNode;
    ids::NodeIndex partner = ids::kInvalidNode;
  };

  std::span<const ids::RingId> ring_ids_;  // the caller's column
  std::size_t view_size_;
  std::size_t shuffle_size_;
  std::function<bool(ids::NodeIndex)> is_alive_;
  // One contiguous N×view_size descriptor slab; views_ are handles into it
  // (never reallocated after construction — slab pointers must stay valid).
  std::unique_ptr<Descriptor[]> view_slab_;
  std::vector<PartialView> views_;
  std::uint64_t seed_;  // roots the apply-time subset-shuffle forks
  const sim::FaultPlan* fault_ = nullptr;  // optional admission (not owned)
  sim::Outbox<Exchange> outbox_;
  // Shuffle subsets, hoisted out of apply() (allocation-free steady state).
  std::vector<Descriptor> outgoing_scratch_;
  std::vector<Descriptor> incoming_scratch_;
};

}  // namespace vitis::gossip
