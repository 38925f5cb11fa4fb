#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gossip/peer_sampling.hpp"
#include "gossip/tman.hpp"
#include "ids/hash.hpp"
#include "overlay/small_world.hpp"

namespace vitis::gossip {
namespace {

// A miniature network whose T-Man selection keeps only ring neighbors; used
// to verify the framework converges a random bootstrap into a correct ring
// (the paper's claim that "T-Man guarantees the ring topology rapidly
// converges").
class TManRingFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 40;

  TManRingFixture() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      ring_ids_.push_back(ids::node_ring_id(static_cast<ids::NodeIndex>(i)));
      tables_.emplace_back(4);
    }
    sampling_ = std::make_unique<PeerSampling>(
        SamplingPolicy::kNewscast, ring_ids_, 10, alive_, /*seed=*/5);
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::vector<ids::NodeIndex> contacts{
          static_cast<ids::NodeIndex>((i + 1) % kNodes),
          static_cast<ids::NodeIndex>((i + 17) % kNodes)};
      sampling_->init_node(static_cast<ids::NodeIndex>(i), contacts);
    }
    tman_ = std::make_unique<TManProtocol>(
        tables_, *sampling_, alive_,
        [this](ids::NodeIndex self, std::span<const Descriptor> candidates,
               overlay::RoutingTable& table, sim::Rng&, std::size_t) {
          select_ring(self, candidates, table);
        },
        TManProtocol::Config{6}, /*seed=*/6);
  }

  void select_ring(ids::NodeIndex self, std::span<const Descriptor> candidates,
                   overlay::RoutingTable& table) {
    std::vector<Descriptor> buffer(candidates.begin(), candidates.end());
    std::vector<overlay::RoutingEntry> selected;
    if (const auto s =
            overlay::best_successor(buffer, ring_ids_[self], self)) {
      const auto& d = buffer[*s];
      selected.push_back(
          {d.node, d.id, overlay::LinkKind::kSuccessor, 0});
      buffer.erase(buffer.begin() + static_cast<std::ptrdiff_t>(*s));
    }
    if (const auto p =
            overlay::best_predecessor(buffer, ring_ids_[self], self)) {
      const auto& d = buffer[*p];
      selected.push_back(
          {d.node, d.id, overlay::LinkKind::kPredecessor, 0});
    }
    table.assign(std::move(selected));
  }

  // One engine-style cycle per round: the sampling stage (prepare per node
  // from its counter stream, then the serial merge), then the T-Man stage.
  void run_rounds(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < kNodes; ++i) {
        sim::Rng rng = sim::Rng::at(5, 0x73616d706c65ULL, i, cycle_);
        sampling_->prepare(static_cast<ids::NodeIndex>(i), rng, 0);
      }
      sampling_->apply(cycle_);
      for (std::size_t i = 0; i < kNodes; ++i) {
        sim::Rng rng = sim::Rng::at(5, 0x746d616eULL, i, cycle_);
        tman_->prepare(static_cast<ids::NodeIndex>(i), rng, 0);
      }
      tman_->apply(cycle_);
      ++cycle_;
    }
  }

  /// The true successor of node i: the alive node at the smallest positive
  /// clockwise distance.
  ids::NodeIndex true_successor(ids::NodeIndex node) const {
    ids::NodeIndex best = ids::kInvalidNode;
    std::uint64_t best_d = ~std::uint64_t{0};
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (j == node) continue;
      const std::uint64_t d =
          ids::clockwise_distance(ring_ids_[node], ring_ids_[j]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<ids::NodeIndex>(j);
      }
    }
    return best;
  }

  std::vector<ids::RingId> ring_ids_;
  std::vector<bool> alive_ = std::vector<bool>(kNodes, true);
  std::vector<overlay::RoutingTable> tables_;
  std::unique_ptr<PeerSampling> sampling_;
  std::unique_ptr<TManProtocol> tman_;
  std::size_t cycle_ = 0;
};

TEST_F(TManRingFixture, BufferNeverContainsSelfOrExcluded) {
  run_rounds(2);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    const ids::NodeIndex excluded = (node + 1) % kNodes;
    sim::Rng rng(1234 + i);
    std::vector<Descriptor> sample;
    sampling_->sample_into(node, 6, sample, rng);
    const auto buffer = tman_->build_buffer(node, excluded, sample);
    for (const auto& d : buffer) {
      EXPECT_NE(d.node, node);
      EXPECT_NE(d.node, excluded);
    }
    // Uniqueness by node.
    for (std::size_t a = 0; a < buffer.size(); ++a) {
      for (std::size_t b = a + 1; b < buffer.size(); ++b) {
        EXPECT_NE(buffer[a].node, buffer[b].node);
      }
    }
  }
}

TEST_F(TManRingFixture, RingConvergesToTrueSuccessors) {
  run_rounds(30);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto node = static_cast<ids::NodeIndex>(i);
    const auto succ = tables_[node].first_of(overlay::LinkKind::kSuccessor);
    if (succ.has_value() && succ->node == true_successor(node)) ++correct;
  }
  // T-Man converges the ring quickly; allow a straggler or two.
  EXPECT_GE(correct, kNodes - 2);
}

TEST_F(TManRingFixture, TablesStayWithinCapacity) {
  run_rounds(10);
  for (const auto& table : tables_) {
    EXPECT_LE(table.size(), table.capacity());
  }
}

}  // namespace
}  // namespace vitis::gossip
