#include "sim/wave_schedule.hpp"

#include <algorithm>

namespace vitis::sim {

void WaveSchedule::build(const Outbox<Exchange>& outbox) {
  stream_.clear();
  outbox.for_each([this](const Exchange& e) { stream_.push_back(e); });
  order();
}

void WaveSchedule::build(std::span<const Exchange> stream) {
  stream_.assign(stream.begin(), stream.end());
  order();
}

std::uint32_t WaveSchedule::place(const Exchange& exchange) {
  const ids::NodeIndex high = std::max(exchange.initiator, exchange.partner);
  if (high >= node_level_.size()) node_level_.resize(high + 1, 0U);
  const std::uint32_t level = 1 + std::max(node_level_[exchange.initiator],
                                           node_level_[exchange.partner]);
  node_level_[exchange.initiator] = level;
  node_level_[exchange.partner] = level;
  return level - 1;
}

void WaveSchedule::order() {
  wave_of_.resize(stream_.size());
  std::uint32_t waves = 0;
  for (std::size_t k = 0; k < stream_.size(); ++k) {
    wave_of_[k] = place(stream_[k]);
    waves = std::max(waves, wave_of_[k] + 1);
  }
  for (const Exchange& e : stream_) {
    node_level_[e.initiator] = 0;
    node_level_[e.partner] = 0;
  }
  // Stable counting sort by wave: stream order survives within a wave.
  wave_begin_.assign(waves + 1, 0);
  for (const std::uint32_t w : wave_of_) ++wave_begin_[w + 1];
  for (std::uint32_t w = 0; w < waves; ++w) {
    wave_begin_[w + 1] += wave_begin_[w];
  }
  ordered_.resize(stream_.size());
  for (std::size_t k = 0; k < stream_.size(); ++k) {
    ordered_[wave_begin_[wave_of_[k]]++] = stream_[k];
  }
  // The fill advanced each begin to its wave's end; shift back.
  for (std::uint32_t w = waves; w > 0; --w) wave_begin_[w] = wave_begin_[w - 1];
  wave_begin_[0] = 0;
}

}  // namespace vitis::sim
