#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "ids/hash.hpp"
#include "overlay/greedy_routing.hpp"
#include "sim/rng.hpp"

namespace vitis::overlay {
namespace {

// A hand-built static overlay: perfect ring over sorted ids plus a few
// Symphony chords per node. This isolates greedy routing from gossip.
class StaticOverlay {
 public:
  StaticOverlay(std::size_t n, std::size_t chords, std::uint64_t seed) {
    ids_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids_[i] = ids::node_ring_id(static_cast<ids::NodeIndex>(i));
    }
    // Sort indices by ring id to identify true ring neighbors.
    order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) order_[i] = static_cast<ids::NodeIndex>(i);
    std::sort(order_.begin(), order_.end(),
              [&](ids::NodeIndex a, ids::NodeIndex b) {
                return ids_[a] < ids_[b];
              });
    tables_.reserve(n);  // move-only: no fill-assign
    for (std::size_t i = 0; i < n; ++i) tables_.emplace_back(2 + chords);
    sim::Rng rng(seed);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const ids::NodeIndex node = order_[pos];
      const ids::NodeIndex succ = order_[(pos + 1) % n];
      const ids::NodeIndex pred = order_[(pos + n - 1) % n];
      tables_[node].add({succ, ids_[succ], LinkKind::kSuccessor, 0});
      tables_[node].add({pred, ids_[pred], LinkKind::kPredecessor, 0});
      for (std::size_t c = 0; c < chords; ++c) {
        const auto other = static_cast<ids::NodeIndex>(rng.index(n));
        if (other != node) {
          tables_[node].add({other, ids_[other], LinkKind::kSmallWorld, 0});
        }
      }
    }
  }

  [[nodiscard]] NeighborFn neighbor_fn() const {
    return [this](ids::NodeIndex n) -> std::span<const RoutingEntry> {
      return tables_[n].entries();
    };
  }
  [[nodiscard]] std::function<ids::RingId(ids::NodeIndex)> id_fn() const {
    return [this](ids::NodeIndex n) { return ids_[n]; };
  }

  [[nodiscard]] ids::NodeIndex globally_closest(ids::RingId target) const {
    ids::NodeIndex best = 0;
    for (std::size_t i = 1; i < ids_.size(); ++i) {
      if (ids::closer_to(target, ids_[i], ids_[best])) {
        best = static_cast<ids::NodeIndex>(i);
      }
    }
    return best;
  }

  std::vector<ids::RingId> ids_;
  std::vector<ids::NodeIndex> order_;
  std::vector<RoutingTable> tables_;
};

TEST(GreedyLookup, FindsGloballyClosestNodeOnPerfectRing) {
  StaticOverlay overlay(200, 3, 11);
  sim::Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const ids::RingId target = rng.next_u64();
    const auto origin = static_cast<ids::NodeIndex>(rng.index(200));
    const auto result = greedy_lookup(overlay.neighbor_fn(), overlay.id_fn(),
                                      origin, target);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.owner, overlay.globally_closest(target))
        << "trial " << trial;
  }
}

TEST(GreedyLookup, PathStartsAtOriginEndsAtOwner) {
  StaticOverlay overlay(100, 2, 13);
  const auto result = greedy_lookup(overlay.neighbor_fn(), overlay.id_fn(), 5,
                                    ids::topic_ring_id(77));
  ASSERT_FALSE(result.path.empty());
  EXPECT_EQ(result.path.front(), 5u);
  EXPECT_EQ(result.path.back(), result.owner);
  EXPECT_EQ(result.hops(), result.path.size() - 1);
}

TEST(GreedyLookup, PathIsLoopFree) {
  StaticOverlay overlay(300, 3, 17);
  sim::Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    const auto result =
        greedy_lookup(overlay.neighbor_fn(), overlay.id_fn(),
                      static_cast<ids::NodeIndex>(rng.index(300)),
                      rng.next_u64());
    auto path = result.path;
    std::sort(path.begin(), path.end());
    EXPECT_EQ(std::adjacent_find(path.begin(), path.end()), path.end());
  }
}

TEST(GreedyLookup, SelfLookupTerminatesImmediately) {
  StaticOverlay overlay(50, 2, 19);
  const auto result = greedy_lookup(overlay.neighbor_fn(), overlay.id_fn(), 7,
                                    overlay.ids_[7]);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.owner, 7u);
  EXPECT_EQ(result.hops(), 0u);
}

TEST(GreedyLookup, HopBudgetFlagsNonConvergence) {
  StaticOverlay overlay(400, 0, 23);  // ring only: O(n) routing
  const auto result = greedy_lookup(overlay.neighbor_fn(), overlay.id_fn(), 0,
                                    ids::topic_ring_id(1), /*max_hops=*/3);
  // With only 3 hops on a 400-node ring, most targets are unreachable.
  if (!result.converged) {
    EXPECT_EQ(result.path.size(), 4u);  // origin + 3 hops
  }
}

TEST(GreedyLookup, ChordsShortenPaths) {
  StaticOverlay ring_only(500, 0, 29);
  StaticOverlay with_chords(500, 4, 29);
  sim::Rng rng(30);
  std::size_t ring_hops = 0;
  std::size_t chord_hops = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const ids::RingId target = rng.next_u64();
    const auto origin = static_cast<ids::NodeIndex>(rng.index(500));
    ring_hops += greedy_lookup(ring_only.neighbor_fn(), ring_only.id_fn(),
                               origin, target, 1000)
                     .hops();
    chord_hops += greedy_lookup(with_chords.neighbor_fn(),
                                with_chords.id_fn(), origin, target, 1000)
                      .hops();
  }
  EXPECT_LT(chord_hops * 3, ring_hops);  // chords cut hops dramatically
}

TEST(GreedyLookup, KnownRemainderMatchesFullWalk) {
  // Every origin walks toward one target, in ascending order, each walk
  // ending where it meets an earlier converged walk. The budget is tight
  // enough (ring-only overlay) that some routes do not converge.
  for (const std::size_t chords : {std::size_t{0}, std::size_t{3}}) {
    StaticOverlay overlay(300, chords, 41);
    const ids::RingId target = ids::topic_ring_id(9);
    const std::size_t budget = chords == 0 ? 60 : 256;
    std::vector<std::optional<std::size_t>> remaining(300);
    const RemainderFn known = [&](ids::NodeIndex n) { return remaining[n]; };
    LookupResult early;
    std::size_t early_exits = 0;
    std::size_t unconverged = 0;
    for (ids::NodeIndex origin = 0; origin < 300; ++origin) {
      const LookupResult full = greedy_lookup(
          overlay.neighbor_fn(), overlay.id_fn(), origin, target, budget);
      greedy_lookup_into(overlay.neighbor_fn(), overlay.id_fn(), origin,
                         target, budget, early, known);
      ASSERT_LE(early.path.size(), full.path.size()) << "origin " << origin;
      EXPECT_TRUE(std::equal(early.path.begin(), early.path.end(),
                             full.path.begin()))
          << "origin " << origin;
      EXPECT_EQ(early.converged, full.converged) << "origin " << origin;
      if (early.owner == ids::kInvalidNode) ++early_exits;
      if (!full.converged) {
        ++unconverged;
        continue;
      }
      EXPECT_EQ(early.hops(), full.hops()) << "origin " << origin;
      // Mark the route's nodes with their remaining length, as the relay
      // refresh does for a fully installed route.
      for (std::size_t i = 0; i < early.path.size(); ++i) {
        remaining[early.path[i]] = early.hops() - i;
      }
    }
    EXPECT_GT(early_exits, 100u) << "chords " << chords;
    if (chords == 0) {
      EXPECT_GT(unconverged, 0u);
    }
  }
}

TEST(GreedyLookup, BudgetCoversWalkedHopsPlusRemainder) {
  // An L-hop route converges with budget L+1 but not with budget L, whether
  // the walk covers it in full or ends on a node whose remainder is known.
  StaticOverlay overlay(400, 0, 43);
  const ids::RingId target = ids::topic_ring_id(5);
  const LookupResult route =
      greedy_lookup(overlay.neighbor_fn(), overlay.id_fn(), 0, target, 1000);
  ASSERT_TRUE(route.converged);
  const std::size_t hops = route.hops();
  ASSERT_GE(hops, 4u);
  std::vector<std::optional<std::size_t>> remaining(400);
  remaining[route.path[2]] = hops - 2;
  const RemainderFn known = [&](ids::NodeIndex n) { return remaining[n]; };
  for (const bool with_callback : {false, true}) {
    LookupResult result;
    greedy_lookup_into(overlay.neighbor_fn(), overlay.id_fn(), 0, target,
                       hops + 1, result, with_callback ? known : nullptr);
    EXPECT_TRUE(result.converged) << "callback " << with_callback;
    EXPECT_EQ(result.hops(), hops) << "callback " << with_callback;
    EXPECT_EQ(result.path.size(), with_callback ? 3u : hops + 1);
    greedy_lookup_into(overlay.neighbor_fn(), overlay.id_fn(), 0, target,
                       hops, result, with_callback ? known : nullptr);
    EXPECT_FALSE(result.converged) << "callback " << with_callback;
  }
}

TEST(GreedyLookup, KnownRemainderAtOriginEndsImmediately) {
  StaticOverlay overlay(100, 2, 47);
  const RemainderFn known = [](ids::NodeIndex n) -> std::optional<std::size_t> {
    if (n == 7) return 5;
    return std::nullopt;
  };
  LookupResult result;
  greedy_lookup_into(overlay.neighbor_fn(), overlay.id_fn(), 7,
                     ids::topic_ring_id(3), 256, result, known);
  EXPECT_EQ(result.path, std::vector<ids::NodeIndex>{7});
  EXPECT_EQ(result.remainder, 5u);
  EXPECT_EQ(result.hops(), 5u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.owner, ids::kInvalidNode);
}

TEST(GreedyLookup, IsolatedNodeOwnsEverything) {
  RoutingTable empty(2);
  const NeighborFn neighbors =
      [&](ids::NodeIndex) -> std::span<const RoutingEntry> {
    return empty.entries();
  };
  const auto result = greedy_lookup(
      neighbors, [](ids::NodeIndex) { return ids::RingId{42}; }, 0, 999999);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.owner, 0u);
}

}  // namespace
}  // namespace vitis::overlay
