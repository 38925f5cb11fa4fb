// Gateway election (Algorithm 5, "Update Profile").
//
// Each round, for each subscribed topic, a node starts from the
// self-proposal (self, self, 0) and considers the proposals piggybacked on
// its interested neighbors' profiles. A neighbor's proposal is admissible
// only under the loop-avoidance filter of line 7 (the neighbor itself is the
// proposal's parent, or the parent is not one of our own neighbors). Among
// admissible proposals the node adopts the gateway whose id is closest to
// hash(t) — provided the hop counter stays below the depth threshold d —
// and, for equal gateways, the shorter path. A node whose final proposal
// names itself is a gateway and must request a relay path.
//
// The rule is one step, consider_proposal(), and an election is a left fold
// of it over the candidates in order. elect_gateway() folds a buffered list
// so the rule can be property-tested in isolation; VitisSystem folds each
// neighbor's proposal into a running one as its scan reaches it.
#pragma once

#include <span>

#include "core/profile.hpp"
#include "ids/id.hpp"

namespace vitis::core {

/// One interested neighbor's piggybacked proposal for the topic under
/// election, plus whether that proposal's parent is in our routing scope
/// (the Algorithm 5 line-7 test, evaluated by the caller who knows the RT).
struct NeighborProposal {
  ids::NodeIndex neighbor = ids::kInvalidNode;
  GatewayProposal proposal;
  bool parent_in_rt = false;
};

struct ElectionInput {
  ids::NodeIndex self = ids::kInvalidNode;
  ids::RingId self_id = 0;
  ids::RingId topic_hash = 0;
  std::uint32_t depth_threshold = 5;  // d
};

/// Line 3: initProposal(self, self, 0), where every election starts.
[[nodiscard]] inline GatewayProposal self_proposal(const ElectionInput& input) {
  return GatewayProposal{input.self, input.self_id, input.self, 0};
}

/// Algorithm 5 lines 6-15 for one candidate: folds `candidate`, heard from
/// `neighbor`, into the running proposal `current`, which changes exactly
/// when the candidate is adopted. `in_scope(parent)` is the line-7 test (is
/// the parent one of our neighbors?). The tests are pure, so they run
/// cheapest first: in_scope is consulted only for a candidate that would
/// improve `current` and whose parent is not the neighbor itself.
template <typename InScope>
void consider_proposal(const ElectionInput& input, GatewayProposal& current,
                       ids::NodeIndex neighbor,
                       const GatewayProposal& candidate, InScope&& in_scope) {
  // Never an uninitialized proposal, never one pointing back at us (a
  // routing loop).
  if (candidate.gateway == ids::kInvalidNode ||
      candidate.parent == input.self) {
    return;
  }
  // Lines 13-15: the same gateway via a shorter path. Lines 8-12: a strictly
  // closer gateway within the depth budget; closer_to(h, a, a) is false, so
  // an equal id needs no distance computation.
  const bool shorter = candidate.gateway == current.gateway &&
                       candidate.hops + 1 < current.hops;
  const bool closer = !shorter &&
                      candidate.hops + 1 < input.depth_threshold &&
                      candidate.gateway_id != current.gateway_id &&
                      ids::closer_to(input.topic_hash, candidate.gateway_id,
                                     current.gateway_id);
  if (!shorter && !closer) return;
  // Line 7 loop avoidance: accept only proposals that either came along
  // their own path (the neighbor is the proposal's parent) or whose parent
  // is outside our neighborhood.
  if (candidate.parent != neighbor && in_scope(candidate.parent)) return;
  current = GatewayProposal{candidate.gateway, candidate.gateway_id, neighbor,
                            candidate.hops + 1};
}

/// Runs one election round over buffered candidates, in order; returns the
/// node's new proposal for the topic.
[[nodiscard]] GatewayProposal elect_gateway(
    const ElectionInput& input, std::span<const NeighborProposal> neighbors);

/// True when the proposal names the node itself (it must RequestRelay).
[[nodiscard]] inline bool is_self_gateway(ids::NodeIndex self,
                                          const GatewayProposal& proposal) {
  return proposal.gateway == self;
}

}  // namespace vitis::core
