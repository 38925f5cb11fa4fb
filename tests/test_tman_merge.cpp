// Regression coverage for TManProtocol's buffer merge: duplicates must
// collapse to one entry keeping the youngest age, whatever order the copies
// arrive in (sample first, then routing-table entries). Guards the
// epoch-stamped seen-array that replaced the original quadratic scan.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "gossip/peer_sampling.hpp"
#include "gossip/tman.hpp"
#include "ids/hash.hpp"
#include "overlay/routing_table.hpp"

namespace vitis::gossip {
namespace {

Descriptor desc(ids::NodeIndex node, std::uint32_t age) {
  return Descriptor{node, ids::node_ring_id(node), age};
}

/// Eight nodes, all alive, with empty routing tables; the sampling service
/// is never queried (each test hands build_buffer its scripted sample).
class TManMergeFixture {
 public:
  static constexpr std::size_t kNodes = 8;

  TManMergeFixture() {
    tables_.reserve(kNodes);  // move-only: no fill-assign
    for (std::size_t i = 0; i < kNodes; ++i) {
      ring_ids_.push_back(ids::node_ring_id(static_cast<ids::NodeIndex>(i)));
      tables_.emplace_back(4);
    }
    sampling_ = std::make_unique<PeerSampling>(
        SamplingPolicy::kNewscast, ring_ids_, /*view_size=*/4, alive_,
        /*seed=*/3);
    tman_ = std::make_unique<TManProtocol>(
        tables_, *sampling_, alive_,
        [](ids::NodeIndex, std::span<const Descriptor>,
           overlay::RoutingTable&, sim::Rng&, std::size_t) {},
        TManProtocol::Config{}, /*seed=*/3);
  }

  std::vector<Descriptor> build_buffer(ids::NodeIndex node,
                                       ids::NodeIndex exclude,
                                       const std::vector<Descriptor>& sample) {
    return tman_->build_buffer(node, exclude, sample);
  }

  std::vector<ids::RingId> ring_ids_;
  std::vector<bool> alive_ = std::vector<bool>(kNodes, true);
  std::vector<overlay::RoutingTable> tables_;
  std::unique_ptr<PeerSampling> sampling_;
  std::unique_ptr<TManProtocol> tman_;
};

TEST(TManMerge, DuplicateSampleKeepsYoungestAge) {
  // The sample itself delivers node 2 twice: old copy first, young second.
  TManMergeFixture fx;
  const auto buffer = fx.build_buffer(0, ids::kInvalidNode,
                                      {desc(2, 7), desc(3, 5), desc(2, 3)});
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[0].node, 2u);  // first-occurrence position is kept
  EXPECT_EQ(buffer[0].age, 3u);   // ...but the youngest age wins
  EXPECT_EQ(buffer[1].node, 3u);
  EXPECT_EQ(buffer[1].age, 5u);
}

TEST(TManMerge, YoungCopyFirstSurvivesOlderDuplicate) {
  TManMergeFixture fx;
  const auto buffer =
      fx.build_buffer(0, ids::kInvalidNode, {desc(2, 1), desc(2, 9)});
  ASSERT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer[0].age, 1u);
}

TEST(TManMerge, TableDuplicateOfSampledNodeKeepsYoungest) {
  // Node 2 arrives stale from the sample but fresh from the routing table
  // (merged second) — and vice versa for node 4.
  TManMergeFixture fx;
  ASSERT_TRUE(fx.tables_[0].add(
      overlay::RoutingEntry{2, ids::node_ring_id(2),
                            overlay::LinkKind::kFriend, 1}));
  ASSERT_TRUE(fx.tables_[0].add(
      overlay::RoutingEntry{4, ids::node_ring_id(4),
                            overlay::LinkKind::kFriend, 8}));
  const auto buffer =
      fx.build_buffer(0, ids::kInvalidNode, {desc(2, 6), desc(4, 0)});
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[0].node, 2u);
  EXPECT_EQ(buffer[0].age, 1u);
  EXPECT_EQ(buffer[1].node, 4u);
  EXPECT_EQ(buffer[1].age, 0u);
}

TEST(TManMerge, ExcludedNodeNeverEnters) {
  TManMergeFixture fx;
  const auto buffer =
      fx.build_buffer(0, /*exclude=*/2, {desc(2, 0), desc(3, 0)});
  ASSERT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer[0].node, 3u);
}

TEST(TManMerge, ConsecutiveBuffersDoNotLeakMembership) {
  // The epoch bump must forget the previous buffer's membership: the same
  // descriptors must reappear in a second build, with the same dedup.
  TManMergeFixture fx;
  for (int round = 0; round < 3; ++round) {
    const auto buffer =
        fx.build_buffer(0, ids::kInvalidNode, {desc(2, 7), desc(2, 3)});
    ASSERT_EQ(buffer.size(), 1u);
    EXPECT_EQ(buffer[0].node, 2u);
    EXPECT_EQ(buffer[0].age, 3u);
  }
}

}  // namespace
}  // namespace vitis::gossip
