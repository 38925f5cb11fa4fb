// One publication's dissemination (§III-C), shared by Vitis, RVR and OPT.
//
// All three systems disseminate by the same rule: every node that holds
// the event forwards it to its next hops, after an optional greedy handoff
// toward the topic's rendezvous node. Only the next-hop set, the handoff and
// the fault hop penalty belong to a system; this module owns the rest — the
// per-publication marks (visited, interested, expected), the
// per-transmission accounting (message count, route trace, delivery, delay
// channel), the report — and the one forwarding loop, whose only parameter
// is the queue policy:
//
//   * kFifo (hop-count model): a node is visited when the first
//     transmission to it is sent. FIFO pops in send order, so the first
//     send is also the first arrival, and the queue holds each node once.
//   * kTimed (link-latency model): transmissions are events ordered by
//     arrival time; a node is visited on its earliest arrival. Later
//     arrivals still count as messages but forward nothing.
//
// A system describes its network to the loop as a `Net`:
//
//   template <typename Fn> void for_each_next(ids::NodeIndex node, Fn&& fn);
//   bool admit(ids::NodeIndex from, ids::NodeIndex to);    // fault drop
//   std::uint32_t penalty(ids::NodeIndex from, ids::NodeIndex to);
//   double latency(ids::NodeIndex from, ids::NodeIndex to);  // kTimed only
//
// Next hops that filter by topic membership ask the loop's
// interested(node): an O(1) read of the mark begin() sets on every
// subscriber, the same answer as SubscriptionTable::subscribes.
//
// The loop is a template over the Net, so the per-transmission path stays
// monomorphic and inlined: no std::function and no virtual call per message.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ids/id.hpp"
#include "pubsub/metrics.hpp"
#include "pubsub/subscription.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "support/recorder.hpp"

namespace vitis::pubsub {

enum class QueuePolicy : std::uint8_t { kFifo, kTimed };

class Dissemination {
 public:
  /// `trace_seed` seeds the dedicated trace-sampling stream, so an untraced
  /// run and a traced run disseminate identically.
  Dissemination(std::size_t node_count, const SubscriptionTable& subscriptions,
                MetricsCollector& metrics, support::Recorder& recorder,
                std::uint64_t trace_seed);

  /// Open a publication: fresh stamps, the publisher visited, every
  /// subscriber of `topic` marked interested, and those other than the
  /// publisher for which `eligible(s)` holds also marked expected. Decides
  /// whether this publication is traced.
  template <typename Eligible>
  void begin(ids::TopicIndex topic, ids::NodeIndex publisher,
             Eligible&& eligible) {
    if (++stamp_ > kMaxStamp) {  // wrap-around: reset the arrays once
      std::fill(visit_.begin(), visit_.end(), 0);
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
    report_ = DisseminationReport{};
    report_.topic = topic;
    report_.publisher = publisher;
    delay_ms_sum_ = 0.0;
    max_delay_ms_ = 0.0;
    route_hop_ = 0;
    route_time_ = 0.0;
    fifo_.clear();
    timed_.clear();
    traced_ = recorder_.want_trace() &&
              trace_rng_.bernoulli(recorder_.config().trace_rate);
    if (traced_) recorder_.begin_trace(publish_count_, topic, publisher);
    ++publish_count_;
    for (const ids::NodeIndex s : subscriptions_.subscribers(topic)) {
      const bool expected = s != publisher && eligible(s);
      mark_[s] = (stamp_ << 1) | static_cast<std::uint32_t>(expected);
      report_.expected += expected;
    }
    visit_[publisher] = stamp_;
  }

  /// Whether `node` subscribes to the open publication's topic.
  [[nodiscard]] bool interested(ids::NodeIndex node) const {
    return (mark_[node] >> 1) == stamp_;
  }

  /// Queue `node`, which already holds the event, as a flood source.
  template <QueuePolicy P>
  void seed(ids::NodeIndex node) {
    if constexpr (P == QueuePolicy::kFifo) {
      fifo_.push_back(Item{node, ids::kInvalidNode, 0});
    } else {
      timed_.schedule(0.0, Arrival{Item{node, ids::kInvalidNode, 0}, false});
    }
  }

  /// One admitted hop from -> to of the greedy handoff toward the
  /// rendezvous node. Hop count and arrival time run on along the route,
  /// across any restarts of the lookup.
  template <QueuePolicy P, typename Net>
  void route_hop(Net& net, ids::NodeIndex from, ids::NodeIndex to) {
    route_hop_ += 1 + net.penalty(from, to);
    if constexpr (P == QueuePolicy::kTimed) {
      route_time_ += net.latency(from, to);
    }
    send<P>(from, to, route_hop_, route_time_, /*route=*/true);
  }

  /// The forwarding loop: drain the queue, forwarding from every node to
  /// its admitted next hops other than the one it received from.
  template <QueuePolicy P, typename Net>
  void flood(Net& net) {
    [[maybe_unused]] std::size_t head = 0;
    for (;;) {
      Item item;
      double now = 0.0;
      if constexpr (P == QueuePolicy::kFifo) {
        if (head == fifo_.size()) break;
        item = fifo_[head++];
      } else {
        if (timed_.empty()) break;
        const auto event = timed_.pop();
        item = event.payload.item;
        now = event.time;
        // Seeds have no sender: they held the event before the flood.
        if (item.from != ids::kInvalidNode &&
            !receive<P>(item.from, item.node, item.hop, now,
                        event.payload.route)) {
          continue;
        }
      }
      net.for_each_next(item.node, [&](ids::NodeIndex y) {
        if (y == item.from || y == item.node || !net.admit(item.node, y)) {
          return;
        }
        // A delayed transmission is charged extra propagation hops.
        const std::uint32_t hop = item.hop + 1 + net.penalty(item.node, y);
        double arrival = 0.0;
        if constexpr (P == QueuePolicy::kTimed) {
          arrival = now + net.latency(item.node, y);
        }
        send<P>(item.node, y, hop, arrival, /*route=*/false);
      });
    }
  }

  /// Close the publication: finish an open trace, record the report.
  DisseminationReport finish();

  /// Link-latency totals of the last kTimed publication (ms, over
  /// delivered subscribers).
  [[nodiscard]] double delay_ms_sum() const { return delay_ms_sum_; }
  [[nodiscard]] double max_delay_ms() const { return max_delay_ms_; }

  /// Bytes of the two per-node stamp arrays (memory_footprint's share).
  [[nodiscard]] std::size_t memory_bytes() const {
    return (visit_.size() + mark_.size()) * sizeof(std::uint32_t);
  }

 private:
  struct Item {
    ids::NodeIndex node = ids::kInvalidNode;
    ids::NodeIndex from = ids::kInvalidNode;
    std::uint32_t hop = 0;
  };
  struct Arrival {
    Item item;
    bool route = false;  // greedy-handoff hop, for the trace
  };

  /// Hand a transmission to the queue: kFifo accounts it now and queues a
  /// first visit; kTimed schedules its arrival at `time`.
  template <QueuePolicy P>
  void send(ids::NodeIndex from, ids::NodeIndex to, std::uint32_t hop,
            double time, bool route) {
    if constexpr (P == QueuePolicy::kFifo) {
      if (receive<P>(from, to, hop, time, route)) {
        fifo_.push_back(Item{to, from, hop});
      }
    } else {
      timed_.schedule(time, Arrival{Item{to, from, hop}, route});
    }
  }

  /// Account one transmission from -> to at `hop` (arriving at `time`);
  /// true when it is `to`'s first.
  template <QueuePolicy P>
  bool receive(ids::NodeIndex from, ids::NodeIndex to, std::uint32_t hop,
               double time, bool route) {
    const bool member = interested(to);
    metrics_.on_message(to, member);
    ++report_.messages;
    if (traced_) recorder_.add_hop(from, to, hop, member, route);
    if (visit_[to] == stamp_) return false;
    visit_[to] = stamp_;
    if (mark_[to] == ((stamp_ << 1) | 1)) {
      ++report_.delivered;
      report_.delay_sum += hop;
      report_.max_delay = std::max<std::size_t>(report_.max_delay, hop);
      metrics_.on_delivery(hop);
      if constexpr (P == QueuePolicy::kTimed) {
        delay_ms_sum_ += time;
        max_delay_ms_ = std::max(max_delay_ms_, time);
      }
    }
    return true;
  }

  const SubscriptionTable& subscriptions_;
  MetricsCollector& metrics_;
  support::Recorder& recorder_;
  sim::Rng trace_rng_;
  std::uint64_t publish_count_ = 0;

  // Per-node marks of the open publication, valid when they carry stamp_:
  // visit_ holds stamp_ once the node held the event; mark_ holds
  // stamp_·2 for every subscriber of the topic, | 1 when it is expected.
  // The doubled mark leaves stamps 31 bits.
  static constexpr std::uint32_t kMaxStamp = UINT32_MAX >> 1;
  std::vector<std::uint32_t> visit_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;

  DisseminationReport report_;
  bool traced_ = false;
  double delay_ms_sum_ = 0.0;
  double max_delay_ms_ = 0.0;
  std::uint32_t route_hop_ = 0;
  double route_time_ = 0.0;

  // Queues, reused across publications so steady-state publishing does
  // not allocate.
  std::vector<Item> fifo_;
  sim::EventQueue<Arrival> timed_;
};

}  // namespace vitis::pubsub
