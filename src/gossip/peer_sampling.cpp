#include "gossip/peer_sampling.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "support/check.hpp"

namespace vitis::gossip {

PeerSamplingService::PeerSamplingService(
    std::span<const ids::RingId> ring_ids, std::size_t view_size,
    std::function<bool(ids::NodeIndex)> is_alive)
    : ring_ids_(ring_ids),
      view_size_(view_size),
      is_alive_(std::move(is_alive)) {
  VITIS_CHECK(view_size_ > 0);
  VITIS_CHECK(is_alive_ != nullptr);
  view_slab_ =
      std::make_unique<Descriptor[]>(ring_ids_.size() * view_size_);
  views_.reserve(ring_ids_.size());
  for (std::size_t i = 0; i < ring_ids_.size(); ++i) {
    views_.emplace_back(view_slab_.get() + i * view_size_, view_size_);
  }
  mine_scratch_.reserve(view_size_ + 1);
  theirs_scratch_.reserve(view_size_ + 1);
}

std::size_t PeerSamplingService::memory_bytes() const {
  // Logical footprint from sizes and fixed capacities only (never
  // vector::capacity(), whose growth policy is implementation-defined):
  // the descriptor slab, the view handles and the two exchange scratch
  // buffers (the ring ids are the caller's).
  return ring_ids_.size() * view_size_ * sizeof(Descriptor) +
         views_.size() * sizeof(PartialView) +
         2 * (view_size_ + 1) * sizeof(Descriptor);
}

void PeerSamplingService::init_node(ids::NodeIndex node,
                                    std::span<const ids::NodeIndex> bootstrap) {
  VITIS_CHECK(node < views_.size());
  views_[node].clear();
  for (const ids::NodeIndex contact : bootstrap) {
    if (contact == node) continue;
    views_[node].insert(self_descriptor(contact));
  }
}

void PeerSamplingService::remove_node(ids::NodeIndex node) {
  VITIS_CHECK(node < views_.size());
  views_[node].clear();
}

void PeerSamplingService::prepare(ids::NodeIndex node, sim::Rng& rng,
                                  std::size_t worker) {
  PartialView& view = views_[node];
  // Age first so our own information decays even in isolation.
  view.increment_ages();
  if (view.empty()) return;

  const std::size_t pick = rng.index(view.size());
  const Descriptor partner = view.entries()[pick];
  if (!is_alive_(partner.node)) {
    // Stand-in for a connection timeout: evict the dead contact.
    view.remove(partner.node);
    return;
  }
  if (fault_ != nullptr &&
      !fault_->deliver(node, partner.node, sim::MessageKind::kGossip, 0)) {
    return;  // request lost in transit; the view already aged this cycle
  }
  outbox_.lane(worker).push_back(Exchange{node, partner.node});
}

void PeerSamplingService::apply(std::size_t cycle) {
  (void)cycle;  // the symmetric merge draws nothing
  outbox_.drain([&](const Exchange& exchange) {
    PartialView& view = views_[exchange.initiator];
    PartialView& partner_view = views_[exchange.partner];

    // Snapshot both sides before mutation (a real exchange is symmetric).
    mine_scratch_.assign(view.entries().begin(), view.entries().end());
    mine_scratch_.push_back(self_descriptor(exchange.initiator));
    theirs_scratch_.assign(partner_view.entries().begin(),
                           partner_view.entries().end());
    theirs_scratch_.push_back(self_descriptor(exchange.partner));

    view.merge(theirs_scratch_);
    view.remove(exchange.initiator);  // never keep self
    partner_view.merge(mine_scratch_);
    partner_view.remove(exchange.partner);
  });
}

void PeerSamplingService::sample_into(ids::NodeIndex node, std::size_t k,
                                      std::vector<Descriptor>& out,
                                      sim::Rng& rng) {
  const PartialView& view = views_[node];
  const std::size_t start = out.size();
  for (const auto& d : view.entries()) {
    if (is_alive_(d.node)) out.push_back(d);
  }
  if (out.size() - start > k) {
    rng.shuffle(std::span<Descriptor>(out).subspan(start));
    out.resize(start + k);
  }
}

}  // namespace vitis::gossip
