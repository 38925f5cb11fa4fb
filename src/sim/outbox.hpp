// Per-worker outbox lanes for the phase-barriered exchange protocol.
//
// During a parallel node stage each worker appends exchange records to its
// own lane — no synchronization, no allocation after warm-up (lanes retain
// capacity across cycles). After the stage barrier the serial merge drains
// lanes in worker order (a sharded merge has every worker walk them in that
// order with for_each). Because the engine slices the ascending activation
// snapshot into contiguous per-worker chunks, lane concatenation in worker
// order is globally ascending by initiating node for ANY worker count —
// which is exactly why the merge (and therefore the whole run) is
// bit-identical whatever `--run-jobs` is.
#pragma once

#include <cstddef>
#include <vector>

namespace vitis::sim {

template <typename Record>
class Outbox {
 public:
  /// Size the lane set; existing records are kept (call between cycles).
  void configure(std::size_t workers) {
    lanes_.resize(workers == 0 ? 1 : workers);
  }

  [[nodiscard]] std::size_t workers() const { return lanes_.size(); }

  /// The calling worker's private lane (append-only during a stage).
  [[nodiscard]] std::vector<Record>& lane(std::size_t worker) {
    return lanes_[worker];
  }
  /// A lane's records — the read side of a sharded merge.
  [[nodiscard]] const std::vector<Record>& lane(std::size_t worker) const {
    return lanes_[worker];
  }

  /// Invoke `fn(record)` for every record, lanes in worker order, records
  /// in append order, then clear all lanes (capacity retained).
  template <typename Fn>
  void drain(Fn&& fn) {
    for_each(fn);
    clear();
  }

  /// Invoke `fn(record)` for every record in drain order without clearing —
  /// the read side of a sharded merge, where every worker walks all lanes.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<Record>& lane : lanes_) {
      for (const Record& record : lane) fn(record);
    }
  }

  /// Clear all lanes (capacity retained).
  void clear() {
    for (std::vector<Record>& lane : lanes_) lane.clear();
  }

 private:
  std::vector<std::vector<Record>> lanes_{std::vector<Record>{}};
};

}  // namespace vitis::sim
