// Regression coverage for TManProtocol's buffer merge: duplicates must
// collapse to one entry keeping the youngest age, whatever order the copies
// arrive in (sample first, then routing-table entries). Guards the
// epoch-stamped seen-array that replaced the original quadratic scan.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "gossip/tman.hpp"
#include "ids/hash.hpp"
#include "overlay/routing_table.hpp"

namespace vitis::gossip {
namespace {

/// Sampling stub that replays a scripted descriptor batch for every node.
class ScriptedSampling final : public SamplingService {
 public:
  explicit ScriptedSampling(std::vector<Descriptor> script)
      : script_(std::move(script)), view_(4) {}

  void init_node(ids::NodeIndex, std::span<const ids::NodeIndex>) override {}
  void remove_node(ids::NodeIndex) override {}
  void prepare(ids::NodeIndex, sim::Rng&, std::size_t) override {}
  void apply(std::size_t) override {}
  void set_workers(std::size_t) override {}

  void sample_into(ids::NodeIndex, std::size_t k, std::vector<Descriptor>& out,
                   sim::Rng&) override {
    for (std::size_t i = 0; i < script_.size() && i < k; ++i) {
      out.push_back(script_[i]);
    }
  }

  [[nodiscard]] const PartialView& view(ids::NodeIndex) const override {
    return view_;
  }

  [[nodiscard]] Descriptor self_descriptor(ids::NodeIndex node) const override {
    return Descriptor{node, ids::node_ring_id(node), 0};
  }

 private:
  std::vector<Descriptor> script_;
  PartialView view_;
};

Descriptor desc(ids::NodeIndex node, std::uint32_t age) {
  return Descriptor{node, ids::node_ring_id(node), age};
}

class TManMergeFixture {
 public:
  TManMergeFixture(std::vector<Descriptor> script, std::size_t sample_size)
      : sampling_(std::move(script)) {
    tables_.reserve(8);  // move-only: no fill-assign
    for (int i = 0; i < 8; ++i) tables_.emplace_back(4);
    tman_ = std::make_unique<TManProtocol>(
        tables_, sampling_, [](ids::NodeIndex) { return true; },
        [](ids::NodeIndex, std::span<const Descriptor>,
           overlay::RoutingTable&, sim::Rng&) {},
        TManProtocol::Config{sample_size}, /*seed=*/3);
  }

  std::vector<Descriptor> build_buffer(ids::NodeIndex node,
                                       ids::NodeIndex exclude) {
    sim::Rng rng(17);  // ScriptedSampling ignores the sample draws
    return tman_->build_buffer(node, exclude, rng);
  }

  std::vector<overlay::RoutingTable> tables_;
  ScriptedSampling sampling_;
  std::unique_ptr<TManProtocol> tman_;
};

TEST(TManMerge, DuplicateSampleKeepsYoungestAge) {
  // The sample itself delivers node 2 twice: old copy first, young second.
  TManMergeFixture fx({desc(2, 7), desc(3, 5), desc(2, 3)}, 3);
  const auto buffer = fx.build_buffer(0, ids::kInvalidNode);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[0].node, 2u);  // first-occurrence position is kept
  EXPECT_EQ(buffer[0].age, 3u);   // ...but the youngest age wins
  EXPECT_EQ(buffer[1].node, 3u);
  EXPECT_EQ(buffer[1].age, 5u);
}

TEST(TManMerge, YoungCopyFirstSurvivesOlderDuplicate) {
  TManMergeFixture fx({desc(2, 1), desc(2, 9)}, 2);
  const auto buffer = fx.build_buffer(0, ids::kInvalidNode);
  ASSERT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer[0].age, 1u);
}

TEST(TManMerge, TableDuplicateOfSampledNodeKeepsYoungest) {
  // Node 2 arrives stale from the sample but fresh from the routing table
  // (merged second) — and vice versa for node 4.
  TManMergeFixture fx({desc(2, 6), desc(4, 0)}, 2);
  ASSERT_TRUE(fx.tables_[0].add(
      overlay::RoutingEntry{2, ids::node_ring_id(2),
                            overlay::LinkKind::kFriend, 1}));
  ASSERT_TRUE(fx.tables_[0].add(
      overlay::RoutingEntry{4, ids::node_ring_id(4),
                            overlay::LinkKind::kFriend, 8}));
  const auto buffer = fx.build_buffer(0, ids::kInvalidNode);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[0].node, 2u);
  EXPECT_EQ(buffer[0].age, 1u);
  EXPECT_EQ(buffer[1].node, 4u);
  EXPECT_EQ(buffer[1].age, 0u);
}

TEST(TManMerge, ExcludedNodeNeverEnters) {
  TManMergeFixture fx({desc(2, 0), desc(3, 0)}, 2);
  const auto buffer = fx.build_buffer(0, /*exclude=*/2);
  ASSERT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer[0].node, 3u);
}

TEST(TManMerge, ConsecutiveBuffersDoNotLeakMembership) {
  // The epoch bump must forget the previous buffer's membership: the same
  // descriptors must reappear in a second build, with the same dedup.
  TManMergeFixture fx({desc(2, 7), desc(2, 3)}, 2);
  for (int round = 0; round < 3; ++round) {
    const auto buffer = fx.build_buffer(0, ids::kInvalidNode);
    ASSERT_EQ(buffer.size(), 1u);
    EXPECT_EQ(buffer[0].node, 2u);
    EXPECT_EQ(buffer[0].age, 3u);
  }
}

}  // namespace
}  // namespace vitis::gossip
