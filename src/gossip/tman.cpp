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
      scratch_(1) {
  VITIS_CHECK(select_ != nullptr);
}

void TManProtocol::set_engine(sim::CycleEngine& engine) {
  engine_ = &engine;
  outbox_.configure(engine.run_jobs());
  scratch_.resize(engine.run_jobs());
}

void TManProtocol::begin_buffer(Scratch& scratch,
                                std::vector<Descriptor>& buffer) {
  buffer.clear();
  if (++scratch.seen_epoch == 0) {  // wrapped: invalidate every stale stamp
    std::fill(scratch.seen_stamp.begin(), scratch.seen_stamp.end(), 0U);
    scratch.seen_epoch = 1;
  }
}

void TManProtocol::merge_unique(Scratch& scratch,
                                std::vector<Descriptor>& buffer,
                                const Descriptor& d,
                                ids::NodeIndex exclude) const {
  if (d.node == exclude || !alive_[d.node]) return;
  if (d.node >= scratch.seen_stamp.size()) {
    // Grows once per newly seen node index, not per cycle.
    scratch.seen_stamp.resize(d.node + 1, 0U);
    scratch.seen_slot.resize(d.node + 1, 0);
  }
  if (scratch.seen_stamp[d.node] == scratch.seen_epoch) {
    Descriptor& existing = buffer[scratch.seen_slot[d.node]];
    if (d.age < existing.age) existing = d;
    return;
  }
  scratch.seen_stamp[d.node] = scratch.seen_epoch;
  scratch.seen_slot[d.node] = buffer.size();
  buffer.push_back(d);
}

void TManProtocol::build_buffer_into(Scratch& scratch, ids::NodeIndex node,
                                     ids::NodeIndex exclude,
                                     std::span<const Descriptor> sample,
                                     std::vector<Descriptor>& buffer) const {
  begin_buffer(scratch, buffer);
  buffer.reserve(sample.size() + tables_[node].size() + 1);
  for (const auto& d : sample) merge_unique(scratch, buffer, d, exclude);
  for (const auto& e : tables_[node].entries()) {
    merge_unique(scratch, buffer, Descriptor{e.node, e.id, e.age}, exclude);
  }
}

std::vector<Descriptor> TManProtocol::build_buffer(
    ids::NodeIndex node, ids::NodeIndex exclude,
    std::span<const Descriptor> sample) const {
  std::vector<Descriptor> buffer;
  build_buffer_into(scratch_[0], node, exclude, sample, buffer);
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
    std::vector<Descriptor>& fallback = scratch_[worker].fallback;
    fallback.clear();
    sampling_->sample_into(node, 1, fallback, rng);
    if (!fallback.empty()) partner = fallback.front().node;
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
  schedule_.build(outbox_);
  outbox_.clear();
  sim::run_waves(
      engine_, schedule_,
      [this, cycle](const Exchange& record, std::size_t worker) {
        exchange(record, cycle, worker);
      },
      [this] {
        if (wave_barrier_ != nullptr) wave_barrier_();
      });
}

void TManProtocol::exchange(const Exchange& exchange, std::size_t cycle,
                            std::size_t worker) {
  const ids::NodeIndex node = exchange.initiator;
  const ids::NodeIndex partner = exchange.partner;
  Scratch& s = scratch_[worker];
  // Every draw in the replay — sampling subsets for both buffers and the
  // selection policy's randomness — forks from the exchange identity.
  sim::Rng rng =
      sim::Rng::at(seed_, kApplySalt, pack_pair(node, partner), cycle);

  // Algorithm 2 lines 3-4 / Algorithm 3 lines 3-4: both sides assemble
  // sample ∪ own RT (the initiator's sample is drawn first); then each
  // merges the other's buffer plus the other's own descriptor (lines 6-8).
  s.sample.clear();
  sampling_->sample_into(node, config_.sample_size, s.sample, rng);
  build_buffer_into(s, node, /*exclude=*/partner, s.sample, s.mine);
  s.sample.clear();
  sampling_->sample_into(partner, config_.sample_size, s.sample, rng);
  build_buffer_into(s, partner, /*exclude=*/node, s.sample, s.theirs);

  begin_buffer(s, s.for_me);
  for (const auto& d : s.mine) merge_unique(s, s.for_me, d, node);
  for (const auto& d : s.theirs) merge_unique(s, s.for_me, d, node);
  merge_unique(s, s.for_me, sampling_->self_descriptor(partner), node);

  begin_buffer(s, s.for_partner);
  for (const auto& d : s.theirs) merge_unique(s, s.for_partner, d, partner);
  for (const auto& d : s.mine) merge_unique(s, s.for_partner, d, partner);
  merge_unique(s, s.for_partner, sampling_->self_descriptor(node), partner);

  select_(node, s.for_me, tables_[node], rng, worker);
  select_(partner, s.for_partner, tables_[partner], rng, worker);
}

}  // namespace vitis::gossip
