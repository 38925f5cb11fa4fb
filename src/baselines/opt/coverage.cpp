#include "baselines/opt/coverage.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/simd.hpp"

namespace vitis::baselines::opt {

CoverageSelector::CoverageSelector(
    std::size_t coverage_target,
    const pubsub::SubscriptionTable& subscriptions)
    : target_(coverage_target), subscriptions_(&subscriptions) {
  VITIS_CHECK(coverage_target > 0);
}

void CoverageSelector::prefilter_pool(
    std::uint64_t my_fingerprint,
    std::span<const gossip::Descriptor> candidates) const {
  const std::size_t n = candidates.size();
  pool_fingerprints_.resize(n);
  rejects_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool_fingerprints_[i] =
        subscriptions_->of(candidates[i].node).fingerprint();
  }
  support::simd::disjoint_mask(my_fingerprint, pool_fingerprints_.data(), n,
                               rejects_.data());
}

std::vector<std::uint32_t> CoverageSelector::shared_positions(
    const pubsub::SubscriptionSet& my_subs,
    const pubsub::SubscriptionSet& other, bool disjoint) const {
  std::vector<std::uint32_t> positions;
  // Disjoint fingerprints prove an empty intersection; the verdict arrives
  // precomputed from the pool's SIMD pass.
  VITIS_DCHECK(disjoint == pubsub::fingerprints_disjoint(
                               my_subs.fingerprint(), other.fingerprint()));
  if (disjoint) {
    return positions;
  }
  const auto mine = my_subs.topics();
  const auto theirs = other.topics();
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < mine.size() && b < theirs.size()) {
    if (mine[a] < theirs[b]) {
      ++a;
    } else if (theirs[b] < mine[a]) {
      ++b;
    } else {
      positions.push_back(static_cast<std::uint32_t>(a));
      ++a;
      ++b;
    }
  }
  return positions;
}

std::vector<overlay::RoutingEntry> CoverageSelector::select_bounded(
    const pubsub::SubscriptionSet& my_subs,
    std::span<const gossip::Descriptor> candidates,
    std::size_t capacity) const {
  struct Scored {
    const gossip::Descriptor* descriptor;
    std::vector<std::uint32_t> shared;
    bool used = false;
  };
  prefilter_pool(my_subs.fingerprint(), candidates);
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& d = candidates[i];
    scored.push_back(Scored{&d, shared_positions(my_subs,
                                                 subscriptions_->of(d.node),
                                                 rejects_[i] != 0)});
  }

  std::vector<std::uint8_t> coverage(my_subs.size(), 0);
  std::vector<overlay::RoutingEntry> selected;
  selected.reserve(capacity);

  // Greedy k-coverage phase.
  while (selected.size() < capacity) {
    std::size_t best = scored.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (scored[i].used) continue;
      std::size_t gain = 0;
      for (const std::uint32_t pos : scored[i].shared) {
        if (coverage[pos] < target_) ++gain;
      }
      const bool better =
          gain > best_gain ||
          (gain == best_gain && gain > 0 && best < scored.size() &&
           (scored[i].shared.size() > scored[best].shared.size() ||
            (scored[i].shared.size() == scored[best].shared.size() &&
             scored[i].descriptor->node < scored[best].descriptor->node)));
      if (better) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == scored.size() || best_gain == 0) break;
    scored[best].used = true;
    for (const std::uint32_t pos : scored[best].shared) {
      if (coverage[pos] < 255) ++coverage[pos];
    }
    selected.push_back(overlay::RoutingEntry{scored[best].descriptor->node,
                                             scored[best].descriptor->id,
                                             overlay::LinkKind::kCoverage, 0});
  }

  // Interest-similarity fill: spend leftover slots on the candidates that
  // share the most topics, even when all topics are already covered (extra
  // redundancy improves per-topic connectivity).
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (!scored[i].used && !scored[i].shared.empty()) rest.push_back(i);
  }
  std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
    if (scored[a].shared.size() != scored[b].shared.size()) {
      return scored[a].shared.size() > scored[b].shared.size();
    }
    return scored[a].descriptor->node < scored[b].descriptor->node;
  });
  for (const std::size_t i : rest) {
    if (selected.size() >= capacity) break;
    selected.push_back(overlay::RoutingEntry{scored[i].descriptor->node,
                                             scored[i].descriptor->id,
                                             overlay::LinkKind::kCoverage, 0});
  }
  return selected;
}

std::vector<overlay::RoutingEntry> CoverageSelector::select_additional(
    const pubsub::SubscriptionSet& my_subs,
    std::span<const gossip::Descriptor> candidates,
    const overlay::RoutingTable& current,
    std::vector<std::uint8_t>& coverage) const {
  VITIS_CHECK(coverage.size() == my_subs.size());
  prefilter_pool(my_subs.fingerprint(), candidates);
  std::vector<overlay::RoutingEntry> additions;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& d = candidates[i];
    if (current.contains(d.node)) continue;
    const auto shared = shared_positions(my_subs, subscriptions_->of(d.node),
                                         rejects_[i] != 0);
    std::size_t gain = 0;
    for (const std::uint32_t pos : shared) {
      if (coverage[pos] < target_) ++gain;
    }
    if (gain == 0) continue;
    for (const std::uint32_t pos : shared) {
      if (coverage[pos] < 255) ++coverage[pos];
    }
    additions.push_back(
        overlay::RoutingEntry{d.node, d.id, overlay::LinkKind::kCoverage, 0});
  }
  return additions;
}

}  // namespace vitis::baselines::opt
