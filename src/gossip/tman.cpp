#include "gossip/tman.hpp"

#include <algorithm>

#include "sim/fault.hpp"
#include "support/check.hpp"

namespace vitis::gossip {

namespace {

/// Salt of the apply-time per-exchange forks ("tmanx" in ASCII).
constexpr std::uint64_t kApplySalt = 0x746d616e78ULL;

[[nodiscard]] constexpr std::uint64_t pack_pair(ids::NodeIndex a,
                                                ids::NodeIndex b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

TManProtocol::TManProtocol(std::span<overlay::RoutingTable> tables,
                           const PeerSampling& sampling,
                           const std::vector<bool>& alive, SelectFn select,
                           Config config, std::uint64_t seed)
    : tables_(tables),
      sampling_(&sampling),
      alive_(alive),
      select_(std::move(select)),
      config_(config),
      seed_(seed),
      prepare_scratch_(1) {
  VITIS_CHECK(select_ != nullptr);
}

void TManProtocol::set_workers(std::size_t workers) {
  outbox_.configure(workers);
  prepare_scratch_.resize(workers == 0 ? 1 : workers);
}

void TManProtocol::begin_buffer(std::vector<Descriptor>& buffer) const {
  buffer.clear();
  if (++seen_epoch_ == 0) {  // wrapped: invalidate every stale stamp
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0U);
    seen_epoch_ = 1;
  }
}

void TManProtocol::merge_unique(std::vector<Descriptor>& buffer,
                                const Descriptor& d,
                                ids::NodeIndex exclude) const {
  if (d.node == exclude || !alive_[d.node]) return;
  if (d.node >= seen_stamp_.size()) {
    // Grows once per newly seen node index, not per cycle.
    seen_stamp_.resize(d.node + 1, 0U);
    seen_slot_.resize(d.node + 1, 0);
  }
  if (seen_stamp_[d.node] == seen_epoch_) {
    Descriptor& existing = buffer[seen_slot_[d.node]];
    if (d.age < existing.age) existing = d;
    return;
  }
  seen_stamp_[d.node] = seen_epoch_;
  seen_slot_[d.node] = buffer.size();
  buffer.push_back(d);
}

void TManProtocol::build_buffer_into(ids::NodeIndex node,
                                     ids::NodeIndex exclude,
                                     std::span<const Descriptor> sample,
                                     std::vector<Descriptor>& buffer) const {
  begin_buffer(buffer);
  buffer.reserve(sample.size() + tables_[node].size() + 1);
  for (const auto& d : sample) merge_unique(buffer, d, exclude);
  for (const auto& e : tables_[node].entries()) {
    merge_unique(buffer, Descriptor{e.node, e.id, e.age}, exclude);
  }
}

std::vector<Descriptor> TManProtocol::build_buffer(
    ids::NodeIndex node, ids::NodeIndex exclude,
    std::span<const Descriptor> sample) const {
  std::vector<Descriptor> buffer;
  build_buffer_into(node, exclude, sample, buffer);
  return buffer;
}

void TManProtocol::prepare(ids::NodeIndex node, sim::Rng& rng,
                           std::size_t worker) {
  overlay::RoutingTable& table = tables_[node];

  // selectRandomNeighbor(): uniform over the routing table, with the
  // peer-sampling view as a bootstrap fallback. Reads only frozen state
  // (tables mutate in apply, liveness in hooks).
  ids::NodeIndex partner = ids::kInvalidNode;
  if (!table.empty()) {
    partner = table.entries()[rng.index(table.size())].node;
  } else {
    std::vector<Descriptor>& scratch = prepare_scratch_[worker];
    scratch.clear();
    sampling_->sample_into(node, 1, scratch, rng);
    if (!scratch.empty()) partner = scratch.front().node;
  }
  if (partner == ids::kInvalidNode) return;
  if (!alive_[partner]) {
    table.remove(partner);  // timeout stand-in (own-table write)
    return;
  }
  if (fault_ != nullptr &&
      !fault_->deliver(node, partner, sim::MessageKind::kTman, 0)) {
    return;  // exchange request lost; no state moves on either side
  }
  outbox_.lane(worker).push_back(Exchange{node, partner});
}

void TManProtocol::apply(std::size_t cycle) {
  outbox_.drain([&](const Exchange& exchange) {
    const ids::NodeIndex node = exchange.initiator;
    const ids::NodeIndex partner = exchange.partner;
    // Every draw in the replay — sampling subsets for both buffers and the
    // selection policy's randomness — forks from the exchange identity.
    sim::Rng rng =
        sim::Rng::at(seed_, kApplySalt, pack_pair(node, partner), cycle);
    overlay::RoutingTable& table = tables_[node];

    // Algorithm 2 lines 3-4 / Algorithm 3 lines 3-4: both sides assemble
    // sample ∪ own RT (the initiator's sample is drawn first); then each
    // merges the other's buffer plus the other's own descriptor (lines 6-8).
    sample_.clear();
    sampling_->sample_into(node, config_.sample_size, sample_, rng);
    build_buffer_into(node, /*exclude=*/partner, sample_, mine_);
    sample_.clear();
    sampling_->sample_into(partner, config_.sample_size, sample_, rng);
    build_buffer_into(partner, /*exclude=*/node, sample_, theirs_);

    begin_buffer(for_me_);
    for (const auto& d : mine_) merge_unique(for_me_, d, node);
    for (const auto& d : theirs_) merge_unique(for_me_, d, node);
    merge_unique(for_me_, sampling_->self_descriptor(partner), node);

    begin_buffer(for_partner_);
    for (const auto& d : theirs_) merge_unique(for_partner_, d, partner);
    for (const auto& d : mine_) merge_unique(for_partner_, d, partner);
    merge_unique(for_partner_, sampling_->self_descriptor(node), partner);

    select_(node, for_me_, table, rng);
    select_(partner, for_partner_, tables_[partner], rng);
  });
}

}  // namespace vitis::gossip
