// Per-worker outbox lanes for the phase-barriered exchange protocol.
//
// During a parallel node stage each worker appends exchange records to its
// own lane — no synchronization, no allocation after warm-up (lanes retain
// capacity across cycles). After the stage barrier the merge reads the
// lanes in worker order with for_each: the gossip merges schedule the
// records into node-disjoint waves (sim::WaveSchedule), and a sharded merge
// has every worker walk every lane. Because the engine slices the ascending
// activation snapshot into contiguous per-worker chunks, lane concatenation
// in worker order is globally ascending by initiating node for ANY worker
// count — which is exactly why the merge (and therefore the whole run) is
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
    return lanes_[worker].records;
  }
  /// A lane's records — the read side of a sharded merge.
  [[nodiscard]] const std::vector<Record>& lane(std::size_t worker) const {
    return lanes_[worker].records;
  }

  /// Invoke `fn(record)` for every record, lanes in worker order, records in
  /// append order (the canonical stream); clear() empties the lanes after.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Lane& lane : lanes_) {
      for (const Record& record : lane.records) fn(record);
    }
  }

  /// Clear all lanes (capacity retained).
  void clear() {
    for (Lane& lane : lanes_) lane.records.clear();
  }

 private:
  // Cache-line aligned: every append writes the lane's end pointer, and
  // workers appending concurrently must not share that line.
  struct alignas(64) Lane {
    std::vector<Record> records;
  };
  std::vector<Lane> lanes_{Lane{}};
};

}  // namespace vitis::sim
