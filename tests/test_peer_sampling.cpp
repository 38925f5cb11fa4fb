#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gossip/peer_sampling.hpp"
#include "ids/hash.hpp"

namespace vitis::gossip {
namespace {

class PeerSamplingFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 60;

  PeerSamplingFixture() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      ring_ids_.push_back(ids::node_ring_id(static_cast<ids::NodeIndex>(i)));
      alive_.push_back(true);
    }
    service_ = std::make_unique<PeerSampling>(
        SamplingPolicy::kNewscast, ring_ids_, /*view_size=*/8, alive_,
        /*seed=*/99);
    // Bootstrap: everyone knows the next three nodes on the index line.
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::vector<ids::NodeIndex> contacts;
      for (std::size_t k = 1; k <= 3; ++k) {
        contacts.push_back(static_cast<ids::NodeIndex>((i + k) % kNodes));
      }
      service_->init_node(static_cast<ids::NodeIndex>(i), contacts);
    }
  }

  // One engine-style round: every alive node's prepare with its
  // counter-based stream, then the serial merge.
  void run_rounds(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (!alive_[i]) continue;
        sim::Rng rng = sim::Rng::at(99, 0x73616d706c65ULL, i, cycle_);
        service_->prepare(static_cast<ids::NodeIndex>(i), rng, 0);
      }
      service_->apply(cycle_);
      ++cycle_;
    }
  }

  std::vector<Descriptor> sample(ids::NodeIndex node, std::size_t k) {
    std::vector<Descriptor> out;
    service_->sample_into(node, k, out, query_rng_);
    return out;
  }

  std::vector<ids::RingId> ring_ids_;
  std::vector<bool> alive_;
  std::unique_ptr<PeerSampling> service_;
  std::size_t cycle_ = 0;
  sim::Rng query_rng_{7};  // for sample() queries outside the cycle path
};

TEST_F(PeerSamplingFixture, BootstrapPopulatesViews) {
  EXPECT_EQ(service_->view(0).size(), 3u);
  EXPECT_TRUE(service_->view(0).contains(1));
}

TEST_F(PeerSamplingFixture, ViewsNeverContainSelf) {
  run_rounds(20);
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_FALSE(
        service_->view(static_cast<ids::NodeIndex>(i)).contains(
            static_cast<ids::NodeIndex>(i)))
        << "node " << i << " holds itself";
  }
}

TEST_F(PeerSamplingFixture, ViewsFillUpAndDiversify) {
  run_rounds(30);
  // After gossip, views should be full and each node should know peers well
  // beyond its bootstrap neighborhood.
  std::set<ids::NodeIndex> known_by_zero;
  for (const auto& d : service_->view(0).entries()) {
    known_by_zero.insert(d.node);
  }
  EXPECT_EQ(service_->view(0).size(), 8u);
  bool beyond_bootstrap = false;
  for (const ids::NodeIndex n : known_by_zero) {
    if (n > 10 && n < kNodes - 5) beyond_bootstrap = true;
  }
  EXPECT_TRUE(beyond_bootstrap);
}

TEST_F(PeerSamplingFixture, SampleReturnsDistinctAlivePeers) {
  run_rounds(10);
  const auto peers = sample(5, 4);
  EXPECT_LE(peers.size(), 4u);
  std::set<ids::NodeIndex> unique;
  for (const auto& d : peers) {
    EXPECT_TRUE(alive_[d.node]);
    unique.insert(d.node);
  }
  EXPECT_EQ(unique.size(), peers.size());
}

TEST_F(PeerSamplingFixture, DeadPeersAreEvictedOverTime) {
  run_rounds(10);
  // Kill a third of the network.
  for (std::size_t i = 0; i < kNodes; i += 3) {
    alive_[i] = false;
    service_->remove_node(static_cast<ids::NodeIndex>(i));
  }
  run_rounds(25);
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!alive_[i]) continue;
    for (const auto& d :
         service_->view(static_cast<ids::NodeIndex>(i)).entries()) {
      // Dead entries may linger briefly, but samples filter them and
      // exchanges evict them; after 25 rounds none should remain.
      EXPECT_TRUE(alive_[d.node])
          << "node " << i << " still holds dead peer " << d.node;
    }
  }
}

TEST_F(PeerSamplingFixture, SelfDescriptorIsFresh) {
  const Descriptor self = service_->self_descriptor(7);
  EXPECT_EQ(self.node, 7u);
  EXPECT_EQ(self.age, 0u);
  EXPECT_EQ(self.id, ring_ids_[7]);
}

TEST_F(PeerSamplingFixture, IsolatedNodeSurvives) {
  service_->init_node(3, {});  // no contacts
  sim::Rng rng = sim::Rng::at(99, 0x73616d706c65ULL, 3, cycle_);
  service_->prepare(3, rng, 0);  // must not crash
  service_->apply(cycle_);
  EXPECT_TRUE(sample(3, 5).empty());
}

}  // namespace
}  // namespace vitis::gossip
