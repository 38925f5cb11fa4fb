#include "core/gateway.hpp"

#include "support/check.hpp"

namespace vitis::core {

GatewayProposal elect_gateway(const ElectionInput& input,
                              std::span<const NeighborProposal> neighbors) {
  VITIS_DCHECK(input.self != ids::kInvalidNode);
  GatewayProposal prop = self_proposal(input);
  for (const NeighborProposal& n : neighbors) {
    consider_proposal(input, prop, n.neighbor, n.proposal,
                      [&n](ids::NodeIndex) { return n.parent_in_rt; });
  }
  return prop;
}

}  // namespace vitis::core
