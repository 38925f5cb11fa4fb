#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ids/hash.hpp"
#include "overlay/greedy_routing.hpp"
#include "sim/rng.hpp"

namespace vitis::overlay {
namespace {

const auto kAllAlive = [](ids::NodeIndex) { return true; };

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

  /// Greedy lookup with every node alive.
  [[nodiscard]] LookupResult lookup(ids::NodeIndex origin, ids::RingId target,
                                    std::size_t max_hops = 256) const {
    LookupResult result;
    greedy_lookup_into(tables_, ids_, kAllAlive, origin, target, max_hops,
                       result);
    return result;
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
    const auto result = overlay.lookup(origin, target);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.owner, overlay.globally_closest(target))
        << "trial " << trial;
  }
}

TEST(GreedyLookup, PathStartsAtOriginEndsAtOwner) {
  StaticOverlay overlay(100, 2, 13);
  const auto result = overlay.lookup(5, ids::topic_ring_id(77));
  ASSERT_FALSE(result.path.empty());
  EXPECT_EQ(result.path.front(), 5u);
  EXPECT_EQ(result.path.back(), result.owner);
  EXPECT_EQ(result.hops(), result.path.size() - 1);
}

TEST(GreedyLookup, PathIsLoopFree) {
  StaticOverlay overlay(300, 3, 17);
  sim::Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    const auto result = overlay.lookup(
        static_cast<ids::NodeIndex>(rng.index(300)), rng.next_u64());
    auto path = result.path;
    std::sort(path.begin(), path.end());
    EXPECT_EQ(std::adjacent_find(path.begin(), path.end()), path.end());
  }
}

TEST(GreedyLookup, SelfLookupTerminatesImmediately) {
  StaticOverlay overlay(50, 2, 19);
  const auto result = overlay.lookup(7, overlay.ids_[7]);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.owner, 7u);
  EXPECT_EQ(result.hops(), 0u);
}

TEST(GreedyLookup, HopBudgetFlagsNonConvergence) {
  StaticOverlay overlay(400, 0, 23);  // ring only: O(n) routing
  const auto result = overlay.lookup(0, ids::topic_ring_id(1), /*max_hops=*/3);
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
    ring_hops += ring_only.lookup(origin, target, 1000).hops();
    chord_hops += with_chords.lookup(origin, target, 1000).hops();
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
    RouteMarks marks;
    marks.resize(300);
    LookupResult early;
    std::size_t early_exits = 0;
    std::size_t unconverged = 0;
    for (ids::NodeIndex origin = 0; origin < 300; ++origin) {
      const LookupResult full = overlay.lookup(origin, target, budget);
      greedy_lookup_into(overlay.tables_, overlay.ids_, kAllAlive, origin,
                         target, budget, early, &marks);
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
      marks.mark(early);
    }
    EXPECT_GT(early_exits, 100u) << "chords " << chords;
    if (chords == 0) {
      EXPECT_GT(unconverged, 0u);
    }
    // The next target forgets every mark.
    marks.next_target();
    std::size_t remaining = 0;
    for (ids::NodeIndex n = 0; n < 300; ++n) {
      EXPECT_FALSE(marks.known(n, remaining)) << "node " << n;
    }
  }
}

TEST(GreedyLookup, BudgetCoversWalkedHopsPlusRemainder) {
  // An L-hop route converges with budget L+1 but not with budget L, whether
  // the walk covers it in full or ends on a node whose remainder is known.
  StaticOverlay overlay(400, 0, 43);
  const ids::RingId target = ids::topic_ring_id(5);
  const LookupResult route = overlay.lookup(0, target, 1000);
  ASSERT_TRUE(route.converged);
  const std::size_t hops = route.hops();
  ASSERT_GE(hops, 4u);
  // Mark only the route's suffix from path[2]: hops - 2 left from there.
  LookupResult suffix = route;
  suffix.path.erase(suffix.path.begin(), suffix.path.begin() + 2);
  RouteMarks marks;
  marks.resize(400);
  marks.mark(suffix);
  for (const bool with_marks : {false, true}) {
    const RouteMarks* known = with_marks ? &marks : nullptr;
    LookupResult result;
    greedy_lookup_into(overlay.tables_, overlay.ids_, kAllAlive, 0, target,
                       hops + 1, result, known);
    EXPECT_TRUE(result.converged) << "marks " << with_marks;
    EXPECT_EQ(result.hops(), hops) << "marks " << with_marks;
    EXPECT_EQ(result.path.size(), with_marks ? 3u : hops + 1);
    greedy_lookup_into(overlay.tables_, overlay.ids_, kAllAlive, 0, target,
                       hops, result, known);
    EXPECT_FALSE(result.converged) << "marks " << with_marks;
  }
}

TEST(GreedyLookup, KnownRemainderAtOriginEndsImmediately) {
  StaticOverlay overlay(100, 2, 47);
  RouteMarks marks;
  marks.resize(100);
  LookupResult five_left;  // node 7 with 5 hops left
  five_left.path = {7};
  five_left.remainder = 5;
  marks.mark(five_left);
  LookupResult result;
  greedy_lookup_into(overlay.tables_, overlay.ids_, kAllAlive, 7,
                     ids::topic_ring_id(3), 256, result, &marks);
  EXPECT_EQ(result.path, std::vector<ids::NodeIndex>{7});
  EXPECT_EQ(result.remainder, 5u);
  EXPECT_EQ(result.hops(), 5u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.owner, ids::kInvalidNode);
}

TEST(GreedyLookup, IsolatedNodeOwnsEverything) {
  std::vector<RoutingTable> tables;
  tables.emplace_back(2);
  const std::vector<ids::RingId> ring_ids{42};
  LookupResult result;
  greedy_lookup_into(tables, ring_ids, kAllAlive, 0, 999999, 256, result);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.owner, 0u);
}

TEST(GreedyLookup, SkipsDeadEntriesInPlace) {
  // A band of consecutive ring positions goes dead. The walk must never
  // step onto a dead node, and it must take exactly the route of a walk
  // over copies of the tables with the dead entries removed (the copies the
  // hosts used to build on every hop).
  StaticOverlay overlay(300, 3, 53);
  std::vector<bool> dead(300, false);
  for (std::size_t pos = 120; pos < 160; ++pos) {
    dead[overlay.order_[pos]] = true;
  }
  const auto is_alive = [&](ids::NodeIndex n) { return !dead[n]; };
  std::vector<RoutingTable> filtered;
  filtered.reserve(300);  // move-only: no fill-assign
  for (const RoutingTable& table : overlay.tables_) {
    filtered.emplace_back(table.capacity());
    for (const RoutingEntry& entry : table.entries()) {
      if (!dead[entry.node]) filtered.back().add(entry);
    }
  }
  sim::Rng rng(54);
  std::size_t walks = 0;
  std::size_t detours = 0;  // walks whose route a dead node would shorten
  LookupResult walked;
  LookupResult reference;
  LookupResult unaware;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto origin = static_cast<ids::NodeIndex>(rng.index(300));
    const ids::RingId target = rng.next_u64();
    if (dead[origin]) continue;
    ++walks;
    greedy_lookup_into(overlay.tables_, overlay.ids_, is_alive, origin,
                       target, 256, walked);
    greedy_lookup_into(filtered, overlay.ids_, kAllAlive, origin, target, 256,
                       reference);
    greedy_lookup_into(overlay.tables_, overlay.ids_, kAllAlive, origin,
                       target, 256, unaware);
    for (const ids::NodeIndex n : walked.path) {
      ASSERT_FALSE(dead[n]) << "trial " << trial << " stepped onto " << n;
    }
    EXPECT_EQ(walked.path, reference.path) << "trial " << trial;
    EXPECT_EQ(walked.owner, reference.owner) << "trial " << trial;
    EXPECT_EQ(walked.converged, reference.converged) << "trial " << trial;
    if (unaware.path != walked.path) ++detours;
  }
  EXPECT_GT(walks, 1500u);
  EXPECT_GT(detours, 100u);  // the dead band is on many routes
}

}  // namespace
}  // namespace vitis::overlay
