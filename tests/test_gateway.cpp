#include <gtest/gtest.h>

#include <vector>

#include "core/gateway.hpp"
#include "sim/rng.hpp"

namespace vitis::core {
namespace {

// Fixed geometry for readability: topic hash at 1000; smaller |id - 1000|
// is closer.
constexpr ids::RingId kTopicHash = 1000;

ElectionInput input(ids::NodeIndex self, ids::RingId self_id,
                    std::uint32_t d = 5) {
  return ElectionInput{self, self_id, kTopicHash, d};
}

NeighborProposal neighbor(ids::NodeIndex who, ids::NodeIndex gw,
                          ids::RingId gw_id, ids::NodeIndex parent,
                          std::uint32_t hops, bool parent_in_rt) {
  return NeighborProposal{who, GatewayProposal{gw, gw_id, parent, hops},
                          parent_in_rt};
}

TEST(GatewayElection, NoNeighborsMeansSelfGateway) {
  const auto prop = elect_gateway(input(1, 900), {});
  EXPECT_EQ(prop.gateway, 1u);
  EXPECT_EQ(prop.parent, 1u);
  EXPECT_EQ(prop.hops, 0u);
  EXPECT_TRUE(is_self_gateway(1, prop));
}

TEST(GatewayElection, AdoptsCloserGateway) {
  // Self at 900 (distance 100); neighbor proposes gateway at 990
  // (distance 10) via itself.
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, 7, 990, 2, 0, true)};
  const auto prop = elect_gateway(input(1, 900), neighbors);
  EXPECT_EQ(prop.gateway, 7u);
  EXPECT_EQ(prop.parent, 2u);
  EXPECT_EQ(prop.hops, 1u);
  EXPECT_FALSE(is_self_gateway(1, prop));
}

TEST(GatewayElection, RejectsFartherGateway) {
  // Self at 990 is already closer than the proposed 900.
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, 7, 900, 2, 0, true)};
  const auto prop = elect_gateway(input(1, 990), neighbors);
  EXPECT_EQ(prop.gateway, 1u);
}

TEST(GatewayElection, DepthThresholdBlocksDeepProposals) {
  // Proposal already 4 hops away with d=5: hops+1 == 5 is not < 5.
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, 7, 999, 2, 4, true)};
  const auto prop = elect_gateway(input(1, 900, /*d=*/5), neighbors);
  EXPECT_EQ(prop.gateway, 1u);  // rejected, stays self

  // With a deeper threshold it is accepted.
  const auto prop_deep = elect_gateway(input(1, 900, /*d=*/6), neighbors);
  EXPECT_EQ(prop_deep.gateway, 7u);
  EXPECT_EQ(prop_deep.hops, 5u);
}

TEST(GatewayElection, PicksClosestAmongMany) {
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, 7, 980, 2, 0, true),
      neighbor(3, 8, 995, 3, 1, true),
      neighbor(4, 9, 970, 4, 0, true),
  };
  const auto prop = elect_gateway(input(1, 900), neighbors);
  EXPECT_EQ(prop.gateway, 8u);  // 995 is closest to 1000
  EXPECT_EQ(prop.parent, 3u);
  EXPECT_EQ(prop.hops, 2u);
}

TEST(GatewayElection, ShorterPathToSameGatewayWins) {
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, 7, 990, 2, 3, true),  // gateway 7 via 4 hops
      neighbor(3, 7, 990, 3, 0, true),  // gateway 7 via 1 hop
  };
  const auto prop = elect_gateway(input(1, 900), neighbors);
  EXPECT_EQ(prop.gateway, 7u);
  EXPECT_EQ(prop.hops, 1u);
  EXPECT_EQ(prop.parent, 3u);
}

TEST(GatewayElection, LoopAvoidanceFilter) {
  // Line 7: a proposal is admissible only if the neighbor is its parent or
  // the parent is outside our neighborhood.
  const std::vector<NeighborProposal> filtered{
      // Parent is some third node that IS in our RT, and the neighbor is
      // not the parent: inadmissible.
      neighbor(2, 7, 999, /*parent=*/9, 0, /*parent_in_rt=*/true)};
  EXPECT_EQ(elect_gateway(input(1, 900), filtered).gateway, 1u);

  const std::vector<NeighborProposal> admissible{
      // Same proposal, but the parent is outside our RT: admissible.
      neighbor(2, 7, 999, /*parent=*/9, 0, /*parent_in_rt=*/false)};
  EXPECT_EQ(elect_gateway(input(1, 900), admissible).gateway, 7u);
}

TEST(GatewayElection, NeverAdoptsProposalPointingBackAtSelf) {
  // A proposal whose parent is ourselves would create a routing loop.
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, 7, 999, /*parent=*/1, 0, /*parent_in_rt=*/false)};
  const auto prop = elect_gateway(input(1, 900), neighbors);
  EXPECT_EQ(prop.gateway, 1u);
}

TEST(GatewayElection, IgnoresUninitializedProposals) {
  const std::vector<NeighborProposal> neighbors{
      neighbor(2, ids::kInvalidNode, 0, 2, 0, true)};
  const auto prop = elect_gateway(input(1, 900), neighbors);
  EXPECT_EQ(prop.gateway, 1u);
}

TEST(GatewayElection, ConvergesOnALineOfNodes) {
  // Chain 0-1-2-3 all subscribed; node 3 is closest to the hash. Iterate
  // the election until stable: everyone should converge to gateway 3 with
  // hop counts equal to chain distance (d large enough).
  const ids::RingId node_ids[4] = {400, 600, 800, 950};
  std::vector<GatewayProposal> props(4);
  for (ids::NodeIndex i = 0; i < 4; ++i) {
    props[i] = GatewayProposal{i, node_ids[i], i, 0};
  }
  // parent_in_rt as VitisSystem computes it: the parent is ourselves or one
  // of our chain neighbors.
  const auto parent_known = [](ids::NodeIndex self, ids::NodeIndex parent) {
    return parent == self || (parent + 1 == self) || (self + 1 == parent);
  };
  for (int round = 0; round < 6; ++round) {
    std::vector<GatewayProposal> next(4);
    for (ids::NodeIndex i = 0; i < 4; ++i) {
      std::vector<NeighborProposal> neighbors;
      if (i > 0) neighbors.push_back({static_cast<ids::NodeIndex>(i - 1),
                                      props[i - 1],
                                      parent_known(i, props[i - 1].parent)});
      if (i < 3) neighbors.push_back({static_cast<ids::NodeIndex>(i + 1),
                                      props[i + 1],
                                      parent_known(i, props[i + 1].parent)});
      next[i] = elect_gateway(
          ElectionInput{i, node_ids[i], kTopicHash, 8}, neighbors);
    }
    props = next;
  }
  for (ids::NodeIndex i = 0; i < 4; ++i) {
    EXPECT_EQ(props[i].gateway, 3u) << "node " << i;
    EXPECT_EQ(props[i].hops, 3u - i) << "node " << i;
  }
}

TEST(GatewayElection, DepthBoundSplitsLongChains) {
  // Same chain, but d=2: nodes farther than 1 hop from the best gateway
  // must elect a nearer one (possibly themselves).
  const ids::RingId node_ids[4] = {400, 600, 800, 950};
  std::vector<GatewayProposal> props(4);
  for (ids::NodeIndex i = 0; i < 4; ++i) {
    props[i] = GatewayProposal{i, node_ids[i], i, 0};
  }
  const auto parent_known = [](ids::NodeIndex self, ids::NodeIndex parent) {
    return parent == self || (parent + 1 == self) || (self + 1 == parent);
  };
  for (int round = 0; round < 6; ++round) {
    std::vector<GatewayProposal> next(4);
    for (ids::NodeIndex i = 0; i < 4; ++i) {
      std::vector<NeighborProposal> neighbors;
      if (i > 0) neighbors.push_back({static_cast<ids::NodeIndex>(i - 1),
                                      props[i - 1],
                                      parent_known(i, props[i - 1].parent)});
      if (i < 3) neighbors.push_back({static_cast<ids::NodeIndex>(i + 1),
                                      props[i + 1],
                                      parent_known(i, props[i + 1].parent)});
      next[i] = elect_gateway(
          ElectionInput{i, node_ids[i], kTopicHash, 2}, neighbors);
    }
    props = next;
  }
  // Node 3 is gateway; node 2 follows it (1 hop); nodes 0 and 1 are beyond
  // the depth bound, so a second gateway emerges among them.
  EXPECT_EQ(props[3].gateway, 3u);
  EXPECT_EQ(props[2].gateway, 3u);
  EXPECT_LT(props[1].hops, 2u);
  EXPECT_LT(props[0].hops, 2u);
}

// Reference election, written independently of consider_proposal(): the
// checks in Algorithm 5's line order, with the line-7 verdict buffered next
// to each candidate.
GatewayProposal reference_elect(const ElectionInput& input,
                                std::span<const NeighborProposal> neighbors) {
  GatewayProposal prop{input.self, input.self_id, input.self, 0};
  for (const NeighborProposal& n : neighbors) {
    const GatewayProposal& candidate = n.proposal;
    if (candidate.gateway == ids::kInvalidNode) continue;
    const bool admissible =
        candidate.parent == n.neighbor || !n.parent_in_rt;
    if (!admissible || candidate.parent == input.self) continue;
    if (ids::closer_to(input.topic_hash, candidate.gateway_id,
                       prop.gateway_id) &&
        candidate.hops + 1 < input.depth_threshold) {
      prop = GatewayProposal{candidate.gateway, candidate.gateway_id,
                             n.neighbor, candidate.hops + 1};
      continue;
    }
    if (candidate.gateway == prop.gateway &&
        candidate.hops + 1 < prop.hops) {
      prop = GatewayProposal{candidate.gateway, candidate.gateway_id,
                             n.neighbor, candidate.hops + 1};
    }
  }
  return prop;
}

// Seeded random elections over a few nodes, so that candidates collide:
// invalid gateways, parents that are self, the neighbor, or a third node in
// or out of scope, the same gateway over shorter and longer paths, ids
// equidistant from the topic hash, and hops on both sides of d.
struct RandomElection {
  ElectionInput input;
  std::vector<NeighborProposal> neighbors;
};

constexpr ids::NodeIndex kSelf = 0;
// Node i's ring id; 990 and 1010 are equidistant from kTopicHash.
constexpr ids::RingId kRingIds[] = {900, 990, 1010, 950, 1050, 1000, 700};

RandomElection random_election(sim::Rng& rng) {
  static constexpr std::uint32_t kDepths[] = {1, 2, 3, 5, 8};
  RandomElection e;
  e.input = ElectionInput{kSelf, kRingIds[kSelf], kTopicHash,
                          kDepths[rng.index(std::size(kDepths))]};
  const std::size_t count = rng.index(13);
  for (std::size_t i = 0; i < count; ++i) {
    NeighborProposal n;
    n.neighbor = static_cast<ids::NodeIndex>(1 + rng.index(6));
    GatewayProposal& p = n.proposal;
    if (rng.bernoulli(0.1)) {
      p.gateway = ids::kInvalidNode;
    } else {
      p.gateway = static_cast<ids::NodeIndex>(rng.index(std::size(kRingIds)));
    }
    // Mostly the gateway's own ring id; sometimes an id that belongs to
    // another node, so that equal ids and equal gateways part ways.
    p.gateway_id = p.gateway != ids::kInvalidNode && !rng.bernoulli(0.1)
                       ? kRingIds[p.gateway]
                       : kRingIds[rng.index(std::size(kRingIds))];
    switch (rng.index(4)) {
      case 0: p.parent = kSelf; break;
      case 1: p.parent = n.neighbor; break;
      default: p.parent = static_cast<ids::NodeIndex>(1 + rng.index(9));
    }
    p.hops = static_cast<std::uint32_t>(
        rng.index(e.input.depth_threshold + 2));
    n.parent_in_rt = rng.bernoulli(0.5);
    e.neighbors.push_back(n);
  }
  return e;
}

// What the fold must consult the scope test for: a candidate that would
// improve the running proposal, whose parent is not the neighbor.
bool needs_scope_test(const ElectionInput& input,
                      const GatewayProposal& current,
                      const NeighborProposal& n) {
  const GatewayProposal& c = n.proposal;
  if (c.gateway == ids::kInvalidNode || c.parent == input.self ||
      c.parent == n.neighbor) {
    return false;
  }
  const std::uint32_t hops = c.hops + 1;
  return (ids::closer_to(input.topic_hash, c.gateway_id, current.gateway_id) &&
          hops < input.depth_threshold) ||
         (c.gateway == current.gateway && hops < current.hops);
}

TEST(GatewayElection, FoldMatchesBufferedReference) {
  sim::Rng rng(20110516);
  // How often each case came up, so the lists cannot silently degenerate.
  std::size_t by_closer = 0;     // adopted: a closer gateway
  std::size_t by_shorter = 0;    // adopted: the same gateway, fewer hops
  std::size_t longer = 0;        // rejected: the same gateway, no fewer hops
  std::size_t out_of_scope = 0;  // rejected by line 7 alone
  std::size_t at_depth = 0;      // rejected: closer, but hops + 1 == d
  for (int i = 0; i < 20000; ++i) {
    const RandomElection e = random_election(rng);
    const GatewayProposal reference = reference_elect(e.input, e.neighbors);
    ASSERT_EQ(elect_gateway(e.input, e.neighbors), reference) << "list " << i;

    GatewayProposal current = self_proposal(e.input);
    for (const NeighborProposal& n : e.neighbors) {
      const GatewayProposal before = current;
      const GatewayProposal& c = n.proposal;
      const bool considered =
          c.gateway != ids::kInvalidNode && c.parent != kSelf;
      const bool same = c.gateway == before.gateway;
      const bool closer =
          ids::closer_to(kTopicHash, c.gateway_id, before.gateway_id);
      consider_proposal(e.input, current, n.neighbor, c,
                        [&n](ids::NodeIndex) { return n.parent_in_rt; });
      if (!considered) {
        EXPECT_EQ(current, before);
      } else if (current != before) {
        EXPECT_EQ(current, (GatewayProposal{c.gateway, c.gateway_id,
                                            n.neighbor, c.hops + 1}));
        ++(same ? by_shorter : by_closer);
      } else if (needs_scope_test(e.input, before, n)) {
        ++out_of_scope;
      } else if (same && c.hops + 1 >= before.hops) {
        ++longer;
      } else if (closer && c.hops + 1 == e.input.depth_threshold) {
        ++at_depth;
      }
    }
    ASSERT_EQ(current, reference) << "list " << i;
  }
  EXPECT_GT(by_closer, 1000u);
  EXPECT_GT(by_shorter, 100u);
  EXPECT_GT(longer, 1000u);
  EXPECT_GT(out_of_scope, 1000u);
  EXPECT_GT(at_depth, 100u);
}

TEST(GatewayElection, ScopeTestOnlyForImprovingCandidatesFromElsewhere) {
  sim::Rng rng(7);
  std::size_t consulted = 0;
  for (int i = 0; i < 10000; ++i) {
    const RandomElection e = random_election(rng);
    GatewayProposal current = self_proposal(e.input);
    for (const NeighborProposal& n : e.neighbors) {
      const bool expected = needs_scope_test(e.input, current, n);
      std::size_t calls = 0;
      consider_proposal(e.input, current, n.neighbor, n.proposal,
                        [&](ids::NodeIndex parent) {
                          EXPECT_EQ(parent, n.proposal.parent);
                          ++calls;
                          return n.parent_in_rt;
                        });
      ASSERT_EQ(calls, expected ? 1u : 0u) << "list " << i;
      consulted += calls;
    }
    ASSERT_EQ(current, reference_elect(e.input, e.neighbors)) << "list " << i;
  }
  EXPECT_GT(consulted, 1000u);
}

}  // namespace
}  // namespace vitis::core
