#include "gossip/cyclon.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "support/check.hpp"

namespace vitis::gossip {

namespace {

/// Salt of the apply-time subset-shuffle forks ("cyclon" in ASCII).
constexpr std::uint64_t kApplySalt = 0x6379636c6f6eULL;

/// One 64-bit identity for the (initiator, partner) pair.
[[nodiscard]] constexpr std::uint64_t pack_pair(ids::NodeIndex a,
                                                ids::NodeIndex b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

CyclonSampling::CyclonSampling(std::span<const ids::RingId> ring_ids,
                               std::size_t view_size,
                               std::size_t shuffle_size,
                               std::function<bool(ids::NodeIndex)> is_alive,
                               std::uint64_t seed)
    : ring_ids_(ring_ids),
      view_size_(view_size),
      shuffle_size_(shuffle_size),
      is_alive_(std::move(is_alive)),
      seed_(seed) {
  VITIS_CHECK(view_size_ > 0);
  VITIS_CHECK(shuffle_size_ > 0 && shuffle_size_ <= view_size_);
  VITIS_CHECK(is_alive_ != nullptr);
  view_slab_ =
      std::make_unique<Descriptor[]>(ring_ids_.size() * view_size_);
  views_.reserve(ring_ids_.size());
  for (std::size_t i = 0; i < ring_ids_.size(); ++i) {
    views_.emplace_back(view_slab_.get() + i * view_size_, view_size_);
  }
  outgoing_scratch_.reserve(view_size_ + 1);
  incoming_scratch_.reserve(view_size_ + 1);
}

std::size_t CyclonSampling::memory_bytes() const {
  // Logical footprint from sizes and fixed capacities only (never
  // vector::capacity(), whose growth policy is implementation-defined).
  return ring_ids_.size() * view_size_ * sizeof(Descriptor) +
         views_.size() * sizeof(PartialView) +
         2 * (view_size_ + 1) * sizeof(Descriptor);
}

void CyclonSampling::init_node(ids::NodeIndex node,
                               std::span<const ids::NodeIndex> bootstrap) {
  VITIS_CHECK(node < views_.size());
  views_[node].clear();
  for (const ids::NodeIndex contact : bootstrap) {
    if (contact == node) continue;
    views_[node].insert(self_descriptor(contact));
  }
}

void CyclonSampling::remove_node(ids::NodeIndex node) {
  VITIS_CHECK(node < views_.size());
  views_[node].clear();
}

void CyclonSampling::prepare(ids::NodeIndex node, sim::Rng& rng,
                             std::size_t worker) {
  (void)rng;  // the partner pick is deterministic (oldest entry)
  PartialView& view = views_[node];
  view.increment_ages();
  if (view.empty()) return;

  // Tail shuffle: pick the oldest entry as partner (bounds staleness).
  const auto entries = view.entries();
  std::size_t oldest = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].age > entries[oldest].age) oldest = i;
  }
  const Descriptor partner = entries[oldest];
  view.remove(partner.node);
  if (!is_alive_(partner.node)) return;  // timeout; the slot is now free
  if (fault_ != nullptr &&
      !fault_->deliver(node, partner.node, sim::MessageKind::kGossip, 0)) {
    return;  // shuffle request lost; the freed slot reads as a timeout too
  }
  outbox_.lane(worker).push_back(Exchange{node, partner.node});
}

void CyclonSampling::apply(std::size_t cycle) {
  outbox_.drain([&](const Exchange& exchange) {
    const ids::NodeIndex node = exchange.initiator;
    const ids::NodeIndex partner_node = exchange.partner;
    // The swap's subset draws are a pure function of the exchange identity,
    // so the replay is independent of how exchanges were recorded.
    sim::Rng rng = sim::Rng::at(seed_, kApplySalt,
                                pack_pair(node, partner_node), cycle);
    PartialView& view = views_[node];

    // Initiator subset: up to shuffle_size-1 random entries plus self
    // (the partner slot was freed in prepare()).
    std::vector<Descriptor>& outgoing = outgoing_scratch_;
    outgoing.assign(view.entries().begin(), view.entries().end());
    rng.shuffle(outgoing);
    if (outgoing.size() > shuffle_size_ - 1) {
      outgoing.resize(shuffle_size_ - 1);
    }
    outgoing.push_back(self_descriptor(node));

    // Partner subset.
    PartialView& partner_view = views_[partner_node];
    std::vector<Descriptor>& incoming = incoming_scratch_;
    incoming.assign(partner_view.entries().begin(),
                    partner_view.entries().end());
    rng.shuffle(incoming);
    if (incoming.size() > shuffle_size_) incoming.resize(shuffle_size_);

    // Initiator drops what it sent (except self) to make room, then merges.
    for (const auto& d : outgoing) {
      if (d.node != node) view.remove(d.node);
    }
    for (const auto& d : incoming) {
      if (d.node == node) continue;
      view.insert(d);
    }

    // Partner merges the initiator's subset symmetrically.
    for (const auto& d : outgoing) {
      if (d.node == partner_node) continue;
      partner_view.insert(d);
    }
    partner_view.remove(partner_node);
  });
}

void CyclonSampling::sample_into(ids::NodeIndex node, std::size_t k,
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
