// Event-driven simulation core (the counterpart of PeerSim's event-based
// engine): a deterministic priority queue of timed events. Ties on time are
// broken by insertion order, so runs are reproducible regardless of
// floating-point coincidences.
//
// The overlay-maintenance protocols are cycle-driven (CycleEngine); the
// event queue powers latency-aware dissemination, where each transmission
// arrives after a per-link delay in milliseconds instead of a unit hop.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "support/check.hpp"

namespace vitis::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    double time = 0.0;
    std::uint64_t sequence = 0;  // insertion order, breaks time ties
    Payload payload;
  };

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double now() const { return now_; }

  /// Schedule `payload` at absolute time `time` (must be >= now()).
  void schedule(double time, Payload payload) {
    VITIS_DCHECK(time >= now_);
    heap_.push(Event{time, next_sequence_++, std::move(payload)});
  }

  /// Pop the earliest event, advancing the clock to its time.
  [[nodiscard]] Event pop() {
    VITIS_CHECK(!heap_.empty());
    Event event = heap_.top();
    heap_.pop();
    now_ = event.time;
    return event;
  }

  /// Empty the queue and rewind the clock. The buffer keeps its capacity,
  /// so a reused queue schedules without allocating.
  void clear() {
    heap_.clear();
    now_ = 0.0;
    next_sequence_ = 0;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;  // FIFO among simultaneous events
    }
  };

  // A priority queue whose clear() keeps the buffer's capacity.
  struct Heap : std::priority_queue<Event, std::vector<Event>, Later> {
    void clear() { this->c.clear(); }
  };
  Heap heap_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace vitis::sim
