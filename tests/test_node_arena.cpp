// NodeArena: the dense-id SoA columns of Vitis' own per-node state
// (profiles, relay tables). The invariants under test are the ones the
// recorded outputs lean on — stable indices, reset semantics on rejoin, and
// a memory_bytes() gauge computed from live sizes only (deterministic per
// content). The routing slab is the host's; test_overlay_system covers it.
#include <gtest/gtest.h>

#include "core/node_arena.hpp"
#include "ids/hash.hpp"
#include "workload/scenario.hpp"

namespace vitis::core {
namespace {

Profile make_profile(ids::NodeIndex node, std::size_t topic_count) {
  Profile profile(topic_count);
  profile.reset_proposals(node, ids::node_ring_id(node));
  return profile;
}

TEST(NodeArena, ColumnsHoldWhatInitNodeInstalled) {
  NodeArena arena(4);
  ASSERT_EQ(arena.size(), 4u);
  for (ids::NodeIndex node = 0; node < 4; ++node) {
    arena.init_node(node, make_profile(node, 3));
  }
  EXPECT_EQ(arena.profile(1).size(), 3u);
  EXPECT_EQ(arena.profile(2).proposal_at(0).gateway, 2u);
  EXPECT_EQ(arena.relay(0).link_count(), 0u);
}

TEST(NodeArena, ResetOverlayStateKeepsSubscriptions) {
  // Churn rejoin: volatile state (relay links, gateway proposals) resets;
  // the proposal slots (one per subscribed topic) persist.
  NodeArena arena(2);
  arena.init_node(0, make_profile(0, 2));
  arena.init_node(1, make_profile(1, 1));
  arena.relay(0).add_link(5, 1);
  arena.profile(0).set_proposal_at(
      0, GatewayProposal{1, ids::node_ring_id(1), 1, 1});

  arena.reset_overlay_state(0, ids::node_ring_id(0));
  EXPECT_EQ(arena.relay(0).link_count(), 0u);
  EXPECT_EQ(arena.profile(0).proposal_at(0).gateway, 0u);
  EXPECT_EQ(arena.profile(0).size(), 2u);
  // The untouched node keeps everything.
  EXPECT_EQ(arena.profile(1).size(), 1u);
}

TEST(NodeArena, MemoryBytesTracksLiveStateNotCapacity) {
  NodeArena arena(2);
  arena.init_node(0, make_profile(0, 0));
  arena.init_node(1, make_profile(1, 0));
  const std::size_t base = arena.memory_bytes();
  // Relay links are live state: adding one grows the gauge, clearing
  // returns it exactly to base (no capacity() leakage).
  arena.relay(0).add_link(3, 1);
  EXPECT_GT(arena.memory_bytes(), base);
  arena.relay(0).clear();
  EXPECT_EQ(arena.memory_bytes(), base);
}

TEST(NodeArena, SystemFootprintIsDeterministicAcrossIdenticalRuns) {
  // The capacity bench prints memory_footprint() on stdout; two identical
  // (seed, scale) runs must agree byte-for-byte.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 200;
  params.subscriptions.topics = 100;
  params.subscriptions.subs_per_node = 10;
  params.events = 8;
  params.seed = 77;
  const auto scenario = workload::make_synthetic_scenario(params);
  const auto footprint = [&] {
    auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
    system->run_cycles(10);
    return system->memory_footprint();
  };
  const std::size_t first = footprint();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, footprint());
  // The arena is one of its equally deterministic terms.
  auto system = workload::make_vitis(scenario, VitisConfig{}, 77);
  system->run_cycles(10);
  EXPECT_LE(system->arena().memory_bytes(), system->memory_footprint());
}

}  // namespace
}  // namespace vitis::core
