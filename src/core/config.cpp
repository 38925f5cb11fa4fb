#include "core/config.hpp"

#include <stdexcept>

namespace vitis::core {

void OverlayConfig::validate() const {
  if (routing_table_size < 2) {
    throw std::invalid_argument("routing_table_size must be at least 2");
  }
  if (view_size == 0) throw std::invalid_argument("view_size must be positive");
  if (sampling == gossip::SamplingPolicy::kCyclon && view_size < 3) {
    throw std::invalid_argument(
        "Cyclon sampling needs view_size >= 3 (it swaps max(3, view_size / 2) "
        "entries)");
  }
  if (bootstrap_contacts == 0) {
    throw std::invalid_argument("bootstrap_contacts must be positive");
  }
  if (lookup_hop_budget == 0) {
    throw std::invalid_argument("lookup_hop_budget must be positive");
  }
}

void VitisConfig::validate() const {
  if (routing_table_size < 3) {
    throw std::invalid_argument(
        "routing_table_size must be at least 3 (pred + succ + one more)");
  }
  OverlayConfig::validate();
  if (structural_links < 2) {
    throw std::invalid_argument(
        "structural_links (k) must be at least 2 (predecessor + successor)");
  }
  if (structural_links > routing_table_size) {
    throw std::invalid_argument(
        "structural_links (k) cannot exceed routing_table_size");
  }
  if (gateway_depth == 0) {
    throw std::invalid_argument("gateway_depth (d) must be positive");
  }
  if (relay_ttl == 0) {
    throw std::invalid_argument("relay_ttl must be positive");
  }
  if (proximity_weight < 0.0) {
    throw std::invalid_argument("proximity_weight must be non-negative");
  }
  if (relay_retransmit > 16) {
    throw std::invalid_argument("relay_retransmit is bounded by 16 attempts");
  }
  if (route_fallback_limit > 16) {
    throw std::invalid_argument("route_fallback_limit is bounded by 16");
  }
}

}  // namespace vitis::core
