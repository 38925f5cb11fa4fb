// Node-disjoint waves over a stream of pairwise exchanges.
//
// A gossip merge (peer sampling's view swaps, T-Man's table rebuilds)
// replays a canonical stream of exchanges, and each exchange reads and
// writes only its two nodes' state. Two exchanges that share no node
// therefore commute. The schedule assigns exchange k to wave
//
//   wave(k) = 1 + the highest wave of any earlier exchange that shares its
//             initiator or its partner   (1 when there is none),
//
// so no two exchanges of one wave share a node, and every node's exchanges
// sit in strictly ascending waves in their stream order. Running the waves
// in order, with a barrier between them, gives every node the exact
// sequence of exchanges a serial replay of the stream gives it, whatever
// runs concurrently inside a wave. The schedule depends only on the stream,
// never on the worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ids/id.hpp"
#include "sim/outbox.hpp"

namespace vitis::sim {

/// One pairwise exchange: the node that initiated it and its partner.
struct Exchange {
  ids::NodeIndex initiator = ids::kInvalidNode;
  ids::NodeIndex partner = ids::kInvalidNode;
};

class WaveSchedule {
 public:
  /// Schedule the outbox's records: lanes in worker order, records in
  /// append order, which is the canonical stream.
  void build(const Outbox<Exchange>& outbox);

  /// Schedule an explicit stream (tests).
  void build(std::span<const Exchange> stream);

  [[nodiscard]] std::size_t waves() const {
    return wave_begin_.empty() ? 0 : wave_begin_.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return ordered_.size(); }

  /// Wave `w`'s exchanges (0-based), in stream order.
  [[nodiscard]] std::span<const Exchange> wave(std::size_t w) const {
    return std::span<const Exchange>(ordered_).subspan(
        wave_begin_[w], wave_begin_[w + 1] - wave_begin_[w]);
  }

  /// Worker `worker`'s contiguous share of `wave` when `workers` split it:
  /// [size·w/J, size·(w+1)/J). Concatenated in worker order, the slices are
  /// the wave in stream order.
  [[nodiscard]] static std::span<const Exchange> slice(
      std::span<const Exchange> wave, std::size_t worker,
      std::size_t workers) {
    const std::size_t begin = wave.size() * worker / workers;
    const std::size_t end = wave.size() * (worker + 1) / workers;
    return wave.subspan(begin, end - begin);
  }

 private:
  // Appends exchange k of the stream and returns its 0-based wave.
  std::uint32_t place(const Exchange& exchange);
  void order();

  std::vector<Exchange> stream_;         // canonical order
  std::vector<std::uint32_t> wave_of_;   // per stream position
  std::vector<Exchange> ordered_;        // wave-major, stream order within
  std::vector<std::uint32_t> wave_begin_;
  // Per node: 1 + the wave of its latest exchange in the stream so far (0
  // when none). Zero between builds; grown once per new node index.
  std::vector<std::uint32_t> node_level_;
};

}  // namespace vitis::sim
