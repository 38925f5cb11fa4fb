#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "gossip/peer_sampling.hpp"
#include "ids/hash.hpp"

namespace vitis::gossip {
namespace {

class CyclonFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 60;

  CyclonFixture() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      ring_ids_.push_back(ids::node_ring_id(static_cast<ids::NodeIndex>(i)));
      alive_.push_back(true);
    }
    // A view of 8 swaps max(3, 8 / 2) = 4 entries per shuffle.
    service_ = std::make_unique<PeerSampling>(
        SamplingPolicy::kCyclon, ring_ids_, /*view_size=*/8, alive_,
        /*seed=*/7);
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
        sim::Rng rng = sim::Rng::at(7, 0x73616d706c65ULL, i, cycle_);
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
  sim::Rng query_rng_{11};  // for sample() queries outside the cycle path
};

TEST_F(CyclonFixture, ViewsNeverContainSelf) {
  run_rounds(20);
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_FALSE(service_->view(static_cast<ids::NodeIndex>(i))
                     .contains(static_cast<ids::NodeIndex>(i)));
  }
}

TEST_F(CyclonFixture, ViewsStayBounded) {
  run_rounds(20);
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_LE(service_->view(static_cast<ids::NodeIndex>(i)).size(), 8u);
  }
}

TEST_F(CyclonFixture, ViewsDiversifyBeyondBootstrap) {
  run_rounds(25);
  std::size_t diversified = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (const auto& d :
         service_->view(static_cast<ids::NodeIndex>(i)).entries()) {
      const std::size_t forward_gap = (d.node + kNodes - i) % kNodes;
      if (forward_gap > 3) {
        ++diversified;
        break;
      }
    }
  }
  EXPECT_GT(diversified, kNodes / 2);
}

TEST_F(CyclonFixture, DeadPeersGetEvicted) {
  run_rounds(10);
  for (std::size_t i = 0; i < kNodes; i += 4) {
    alive_[i] = false;
    service_->remove_node(static_cast<ids::NodeIndex>(i));
  }
  run_rounds(30);
  std::size_t dead_refs = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!alive_[i]) continue;
    for (const auto& d :
         service_->view(static_cast<ids::NodeIndex>(i)).entries()) {
      if (!alive_[d.node]) ++dead_refs;
    }
  }
  // The tail shuffle probes oldest entries first, so dead references decay
  // quickly; a stray one or two may persist in a 60-node run.
  EXPECT_LE(dead_refs, 3u);
}

TEST_F(CyclonFixture, SampleFiltersDeadAndIsDistinct) {
  run_rounds(10);
  alive_[1] = false;
  const auto peers = sample(0, 6);
  std::set<ids::NodeIndex> unique;
  for (const auto& d : peers) {
    EXPECT_TRUE(alive_[d.node]);
    unique.insert(d.node);
  }
  EXPECT_EQ(unique.size(), peers.size());
}

TEST(SamplingFactory, BuildsBothPolicies) {
  const std::vector<ids::RingId> ring_ids{1, 2, 3};
  const std::vector<bool> alive(ring_ids.size(), true);
  PeerSampling newscast(SamplingPolicy::kNewscast, ring_ids, 4, alive,
                        /*seed=*/1);
  PeerSampling cyclon(SamplingPolicy::kCyclon, ring_ids, 4, alive,
                      /*seed=*/1);
  EXPECT_EQ(newscast.self_descriptor(1).id, ring_ids[1]);
  EXPECT_EQ(cyclon.self_descriptor(2).id, ring_ids[2]);
  // The policy changes the exchange, not the state it is kept in.
  EXPECT_EQ(newscast.memory_bytes(), cyclon.memory_bytes());

  // One prepare tells the policies apart: Newscast keeps its (alive)
  // partner in view, Cyclon frees the oldest entry's slot for the swap
  // (ages tie after aging, so the first entry is the oldest).
  const std::vector<ids::NodeIndex> contacts{1, 2};
  newscast.init_node(0, contacts);
  cyclon.init_node(0, contacts);
  sim::Rng rng(5);
  newscast.prepare(0, rng, 0);
  cyclon.prepare(0, rng, 0);
  EXPECT_EQ(newscast.view(0).size(), 2u);
  ASSERT_EQ(cyclon.view(0).size(), 1u);
  EXPECT_TRUE(cyclon.view(0).contains(2));
}

}  // namespace
}  // namespace vitis::gossip
