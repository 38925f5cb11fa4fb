// One publication's dissemination (§III-C), shared by Vitis, RVR and OPT.
//
// All three systems disseminate by the same rule: every node that holds
// the event forwards it to its next hops, after an optional greedy handoff
// toward the topic's rendezvous node. Only the next-hop set, the handoff and
// the fault hop penalty belong to a system; this module owns the rest — the
// per-publication marks (visited, interested, expected), the
// per-transmission accounting (message count, route trace, delivery, delay
// channel), the report — and the one forwarding loop. The loop counts
// delay in overlay hops, as §IV measures it, over a FIFO queue: a node is
// visited when the first transmission to it is sent. FIFO pops in send
// order, so the first send is also the first arrival, and the queue holds
// each node once.
//
// A system describes its network to the loop as a `Net`:
//
//   template <typename Fn> void for_each_next(ids::NodeIndex node, Fn&& fn);
//   bool admit(ids::NodeIndex from, ids::NodeIndex to);    // fault drop
//   std::uint32_t penalty(ids::NodeIndex from, ids::NodeIndex to);
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
#include "sim/rng.hpp"
#include "support/recorder.hpp"

namespace vitis::pubsub {

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
    route_hop_ = 0;
    fifo_.clear();
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
  void seed(ids::NodeIndex node) {
    fifo_.push_back(Item{node, ids::kInvalidNode, 0});
  }

  /// One admitted hop from -> to of the greedy handoff toward the
  /// rendezvous node. The hop count runs on along the route, across any
  /// restarts of the lookup.
  template <typename Net>
  void route_hop(Net& net, ids::NodeIndex from, ids::NodeIndex to) {
    route_hop_ += 1 + net.penalty(from, to);
    send(from, to, route_hop_, /*route=*/true);
  }

  /// The forwarding loop: drain the queue, forwarding from every node to
  /// its admitted next hops other than the one it received from.
  template <typename Net>
  void flood(Net& net) {
    std::size_t head = 0;
    for (;;) {
      if (head == fifo_.size()) break;
      const Item item = fifo_[head++];
      net.for_each_next(item.node, [&](ids::NodeIndex y) {
        if (y == item.from || y == item.node || !net.admit(item.node, y)) {
          return;
        }
        // A delayed transmission is charged extra propagation hops.
        const std::uint32_t hop = item.hop + 1 + net.penalty(item.node, y);
        send(item.node, y, hop, /*route=*/false);
      });
    }
  }

  /// Close the publication: finish an open trace, record the report.
  DisseminationReport finish();

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

  /// Account one transmission from -> to at `hop` (`route`: a greedy-
  /// handoff hop, for the trace) and queue `to` on its first visit.
  void send(ids::NodeIndex from, ids::NodeIndex to, std::uint32_t hop,
            bool route) {
    const bool member = interested(to);
    metrics_.on_message(to, member);
    ++report_.messages;
    if (traced_) recorder_.add_hop(from, to, hop, member, route);
    if (visit_[to] == stamp_) return;
    visit_[to] = stamp_;
    if (mark_[to] == ((stamp_ << 1) | 1)) {
      ++report_.delivered;
      report_.delay_sum += hop;
      report_.max_delay = std::max<std::size_t>(report_.max_delay, hop);
      metrics_.on_delivery(hop);
    }
    fifo_.push_back(Item{to, from, hop});
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
  std::uint32_t route_hop_ = 0;

  // The queue, reused across publications so steady-state publishing does
  // not allocate.
  std::vector<Item> fifo_;
};

}  // namespace vitis::pubsub
