#include "gossip/peer_sampling.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "support/check.hpp"

namespace vitis::gossip {

namespace {

/// Salt of Cyclon's apply-time subset-shuffle forks ("cyclon" in ASCII).
constexpr std::uint64_t kApplySalt = 0x6379636c6f6eULL;

/// One 64-bit identity for the (initiator, partner) pair.
[[nodiscard]] constexpr std::uint64_t pack_pair(ids::NodeIndex a,
                                                ids::NodeIndex b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Age order: std::max_element under it finds the oldest entry (the first
/// of equally old ones).
[[nodiscard]] bool younger(const Descriptor& a, const Descriptor& b) {
  return a.age < b.age;
}

}  // namespace

PeerSampling::PeerSampling(SamplingPolicy policy,
                           std::span<const ids::RingId> ring_ids,
                           std::size_t view_size,
                           const std::vector<bool>& alive, std::uint64_t seed)
    : policy_(policy),
      ring_ids_(ring_ids),
      view_size_(view_size),
      shuffle_size_(std::max<std::size_t>(3, view_size / 2)),
      alive_(alive),
      seed_(seed) {
  VITIS_CHECK(view_size_ > 0);
  VITIS_CHECK(policy_ == SamplingPolicy::kNewscast ||
              shuffle_size_ <= view_size_);
  VITIS_CHECK(alive_.size() == ring_ids_.size());
  view_slab_ =
      std::make_unique<Descriptor[]>(ring_ids_.size() * view_size_);
  views_.reserve(ring_ids_.size());
  for (std::size_t i = 0; i < ring_ids_.size(); ++i) {
    views_.emplace_back(view_slab_.get() + i * view_size_, view_size_);
  }
  mine_.reserve(view_size_ + 1);
  theirs_.reserve(view_size_ + 1);
}

std::size_t PeerSampling::memory_bytes() const {
  // Logical footprint from sizes and fixed capacities only (never
  // vector::capacity(), whose growth policy is implementation-defined):
  // the descriptor slab, the view handles and the two exchange buffers
  // (the ring ids are the caller's).
  return ring_ids_.size() * view_size_ * sizeof(Descriptor) +
         views_.size() * sizeof(PartialView) +
         2 * (view_size_ + 1) * sizeof(Descriptor);
}

void PeerSampling::init_node(ids::NodeIndex node,
                             std::span<const ids::NodeIndex> bootstrap) {
  VITIS_CHECK(node < views_.size());
  views_[node].clear();
  for (const ids::NodeIndex contact : bootstrap) {
    if (contact == node) continue;
    views_[node].insert(self_descriptor(contact));
  }
}

void PeerSampling::remove_node(ids::NodeIndex node) {
  VITIS_CHECK(node < views_.size());
  views_[node].clear();
}

void PeerSampling::prepare(ids::NodeIndex node, sim::Rng& rng,
                           std::size_t worker) {
  PartialView& view = views_[node];
  // Age first so our own information decays even in isolation.
  view.increment_ages();
  if (view.empty()) return;

  // Newscast gossips with a random entry; Cyclon with the oldest (tail
  // shuffle, which bounds staleness).
  const auto entries = view.entries();
  const ids::NodeIndex partner =
      policy_ == SamplingPolicy::kNewscast
          ? entries[rng.index(entries.size())].node
          : std::max_element(entries.begin(), entries.end(), younger)->node;
  // Cyclon frees the partner's slot for the swap whether or not it answers;
  // a dead partner stands in for a connection timeout and is evicted.
  const bool timed_out = !alive_[partner];
  if (timed_out || policy_ == SamplingPolicy::kCyclon) view.remove(partner);
  if (timed_out) return;
  if (fault_ != nullptr &&
      !fault_->deliver(node, partner, sim::MessageKind::kGossip, 0)) {
    return;  // request lost in transit; the view already aged this cycle
  }
  outbox_.lane(worker).push_back(Exchange{node, partner});
}

void PeerSampling::apply(std::size_t cycle) {
  outbox_.drain([&](const Exchange& exchange) {
    if (policy_ == SamplingPolicy::kNewscast) {
      swap_views(exchange);
    } else {
      swap_subsets(exchange, cycle);
    }
  });
}

void PeerSampling::swap_views(const Exchange& exchange) {
  PartialView& view = views_[exchange.initiator];
  PartialView& partner_view = views_[exchange.partner];

  // Snapshot both sides before mutation (a real exchange is symmetric).
  mine_.assign(view.entries().begin(), view.entries().end());
  mine_.push_back(self_descriptor(exchange.initiator));
  theirs_.assign(partner_view.entries().begin(), partner_view.entries().end());
  theirs_.push_back(self_descriptor(exchange.partner));

  view.merge(theirs_);
  view.remove(exchange.initiator);  // never keep self
  partner_view.merge(mine_);
  partner_view.remove(exchange.partner);
}

void PeerSampling::swap_subsets(const Exchange& exchange, std::size_t cycle) {
  const ids::NodeIndex node = exchange.initiator;
  const ids::NodeIndex partner = exchange.partner;
  sim::Rng rng =
      sim::Rng::at(seed_, kApplySalt, pack_pair(node, partner), cycle);
  PartialView& view = views_[node];
  PartialView& partner_view = views_[partner];

  // Initiator subset: up to shuffle_size-1 random entries plus self (the
  // partner's slot was freed in prepare()).
  mine_.assign(view.entries().begin(), view.entries().end());
  rng.shuffle(mine_);
  if (mine_.size() > shuffle_size_ - 1) mine_.resize(shuffle_size_ - 1);
  mine_.push_back(self_descriptor(node));

  // Partner subset.
  theirs_.assign(partner_view.entries().begin(), partner_view.entries().end());
  rng.shuffle(theirs_);
  if (theirs_.size() > shuffle_size_) theirs_.resize(shuffle_size_);

  // Initiator drops what it sent (except self) to make room, then merges.
  for (const auto& d : mine_) {
    if (d.node != node) view.remove(d.node);
  }
  for (const auto& d : theirs_) {
    if (d.node != node) view.insert(d);
  }

  // Partner merges the initiator's subset symmetrically.
  for (const auto& d : mine_) {
    if (d.node != partner) partner_view.insert(d);
  }
  partner_view.remove(partner);
}

void PeerSampling::sample_into(ids::NodeIndex node, std::size_t k,
                               std::vector<Descriptor>& out,
                               sim::Rng& rng) const {
  const PartialView& view = views_[node];
  const std::size_t start = out.size();
  for (const auto& d : view.entries()) {
    if (alive_[d.node]) out.push_back(d);
  }
  if (out.size() - start > k) {
    rng.shuffle(std::span<Descriptor>(out).subspan(start));
    out.resize(start + k);
  }
}

}  // namespace vitis::gossip
