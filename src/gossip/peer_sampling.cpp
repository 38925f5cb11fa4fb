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
  buffers_.resize(1);
  buffers_[0].mine.reserve(view_size_ + 1);
  buffers_[0].theirs.reserve(view_size_ + 1);
}

void PeerSampling::set_engine(sim::CycleEngine& engine) {
  engine_ = &engine;
  outbox_.configure(engine.run_jobs());
  buffers_.resize(engine.run_jobs());
  for (Buffers& buffers : buffers_) {
    buffers.mine.reserve(view_size_ + 1);
    buffers.theirs.reserve(view_size_ + 1);
  }
}

std::size_t PeerSampling::memory_bytes() const {
  // Logical footprint from sizes and fixed capacities only (never
  // vector::capacity(), whose growth policy is implementation-defined):
  // the descriptor slab, the view handles and one copy of the two exchange
  // buffers, whatever the worker count (the ring ids are the caller's).
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
  schedule_.build(outbox_);
  outbox_.clear();
  sim::run_waves(
      engine_, schedule_,
      [this, cycle](const Exchange& exchange, std::size_t worker) {
        if (policy_ == SamplingPolicy::kNewscast) {
          swap_views(exchange, buffers_[worker]);
        } else {
          swap_subsets(exchange, cycle, buffers_[worker]);
        }
      },
      [] {});
}

void PeerSampling::swap_views(const Exchange& exchange, Buffers& buffers) {
  PartialView& view = views_[exchange.initiator];
  PartialView& partner_view = views_[exchange.partner];

  // Snapshot both sides before mutation (a real exchange is symmetric).
  std::vector<Descriptor>& mine = buffers.mine;
  std::vector<Descriptor>& theirs = buffers.theirs;
  mine.assign(view.entries().begin(), view.entries().end());
  mine.push_back(self_descriptor(exchange.initiator));
  theirs.assign(partner_view.entries().begin(), partner_view.entries().end());
  theirs.push_back(self_descriptor(exchange.partner));

  view.merge(theirs);
  view.remove(exchange.initiator);  // never keep self
  partner_view.merge(mine);
  partner_view.remove(exchange.partner);
}

void PeerSampling::swap_subsets(const Exchange& exchange, std::size_t cycle,
                                Buffers& buffers) {
  const ids::NodeIndex node = exchange.initiator;
  const ids::NodeIndex partner = exchange.partner;
  sim::Rng rng =
      sim::Rng::at(seed_, kApplySalt, pack_pair(node, partner), cycle);
  PartialView& view = views_[node];
  PartialView& partner_view = views_[partner];
  std::vector<Descriptor>& mine = buffers.mine;
  std::vector<Descriptor>& theirs = buffers.theirs;

  // Initiator subset: up to shuffle_size-1 random entries plus self (the
  // partner's slot was freed in prepare()).
  mine.assign(view.entries().begin(), view.entries().end());
  rng.shuffle(mine);
  if (mine.size() > shuffle_size_ - 1) mine.resize(shuffle_size_ - 1);
  mine.push_back(self_descriptor(node));

  // Partner subset.
  theirs.assign(partner_view.entries().begin(), partner_view.entries().end());
  rng.shuffle(theirs);
  if (theirs.size() > shuffle_size_) theirs.resize(shuffle_size_);

  // Initiator drops what it sent (except self) to make room, then merges.
  for (const auto& d : mine) {
    if (d.node != node) view.remove(d.node);
  }
  for (const auto& d : theirs) {
    if (d.node != node) view.insert(d);
  }

  // Partner merges the initiator's subset symmetrically.
  for (const auto& d : mine) {
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
