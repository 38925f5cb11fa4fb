#include "gossip/sampling_service.hpp"

#include "gossip/cyclon.hpp"
#include "gossip/peer_sampling.hpp"

namespace vitis::gossip {

const char* to_string(SamplingPolicy policy) {
  switch (policy) {
    case SamplingPolicy::kNewscast:
      return "newscast";
    case SamplingPolicy::kCyclon:
      return "cyclon";
  }
  return "?";
}

std::unique_ptr<SamplingService> make_sampling_service(
    SamplingPolicy policy, std::span<const ids::RingId> ring_ids,
    std::size_t view_size, std::function<bool(ids::NodeIndex)> is_alive,
    std::uint64_t seed) {
  switch (policy) {
    case SamplingPolicy::kCyclon:
      return std::make_unique<CyclonSampling>(
          ring_ids, view_size, std::max<std::size_t>(3, view_size / 2),
          std::move(is_alive), seed);
    case SamplingPolicy::kNewscast:
      break;
  }
  return std::make_unique<PeerSamplingService>(ring_ids, view_size,
                                               std::move(is_alive));
}

}  // namespace vitis::gossip
