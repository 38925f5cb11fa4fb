// The three evaluation metrics of §IV, measured exactly as the paper
// defines them:
//
//  * Hit ratio — fraction of (event, subscriber) deliveries that succeed.
//  * Traffic overhead — per-node proportion of received messages that the
//    node did not subscribe to (relay traffic); line plots use the mean
//    over nodes that received any traffic, Fig. 5 uses the full per-node
//    distribution.
//  * Propagation delay — average number of hops an event takes to reach
//    each subscriber.
#pragma once

#include <cstdint>
#include <vector>

#include "ids/id.hpp"
#include "support/histogram.hpp"

namespace vitis::pubsub {

/// The overhead convention shared by the per-node fractions and the global
/// summary: relay share of received traffic, with 0/0 == 0 (a node or
/// window without traffic carries no overhead). Both NodeTraffic and
/// MetricsCollector::global_overhead must route through this so the two
/// summaries can only differ by *weighting* (per-node mean vs message-
/// weighted aggregate), never by convention.
[[nodiscard]] constexpr double overhead_ratio(std::uint64_t uninterested,
                                              std::uint64_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(uninterested) /
                          static_cast<double>(total);
}

/// Message counters of one node over a measurement window.
struct NodeTraffic {
  std::uint64_t interested = 0;    // received messages on subscribed topics
  std::uint64_t uninterested = 0;  // received relay messages

  [[nodiscard]] std::uint64_t total() const { return interested + uninterested; }
  [[nodiscard]] double overhead_fraction() const {
    return overhead_ratio(uninterested, total());
  }
};

/// Outcome of disseminating one published event.
struct DisseminationReport {
  ids::TopicIndex topic = 0;
  ids::NodeIndex publisher = 0;
  std::size_t expected = 0;        // alive subscribers other than publisher
  std::size_t delivered = 0;       // of those, how many were reached
  std::uint64_t delay_sum = 0;     // sum of hop counts over delivered
  std::size_t max_delay = 0;       // worst hop count over delivered
  std::uint64_t messages = 0;      // total point-to-point messages sent

  [[nodiscard]] double hit_ratio() const {
    return expected == 0 ? 1.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(expected);
  }
  [[nodiscard]] double mean_delay() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(delay_sum) /
                                static_cast<double>(delivered);
  }
};

/// Aggregates per-node traffic and per-event reports across a measurement
/// window, producing the paper's three metrics.
class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t node_count);

  /// A message was received by `node`; `interested` says whether the node
  /// subscribes to the message's topic.
  void on_message(ids::NodeIndex node, bool interested);

  /// A subscriber was delivered to after `hops` hops (feeds the delay
  /// histogram; the dissemination calls this alongside its report).
  void on_delivery(std::size_t hops);

  void on_report(const DisseminationReport& report);

  /// Attach (or detach, with nullptr) the system's distribution channels:
  /// on_delivery then records Channel::kDeliveryHops and on_report records
  /// Channel::kPublicationLatency (the event's worst delivery hop). Both
  /// are called from the systems' serial publish paths, so they record on
  /// lane 0. Not owned; must outlive the collector's use.
  void set_histograms(support::HistogramSet* histograms) {
    histograms_ = histograms;
  }

  void reset();

  // --- summaries -----------------------------------------------------------

  /// delivered / expected over all recorded events.
  [[nodiscard]] double hit_ratio() const;

  /// Mean hops per successful delivery.
  [[nodiscard]] double mean_delay_hops() const;

  /// Mean of per-node overhead fractions over nodes with any traffic.
  [[nodiscard]] double mean_node_overhead() const;

  /// Global overhead: total uninterested messages / total messages.
  [[nodiscard]] double global_overhead() const;

  /// Per-node overhead fractions (nodes with no traffic omitted), for the
  /// Fig. 5 distribution.
  [[nodiscard]] std::vector<double> node_overhead_fractions() const;

  /// Smallest hop count h such that at least `quantile` of deliveries
  /// arrived within h hops (0 when nothing was delivered). Exact below 16
  /// hops; above, the upper bound of h's log-linear bucket (at most 12.5%
  /// high), never above the largest recorded delay.
  [[nodiscard]] std::uint64_t delay_percentile(double quantile) const {
    return delays_.quantile(quantile);
  }

  [[nodiscard]] std::uint64_t total_messages() const;

  /// Uninterested (relay) messages summed over all nodes.
  [[nodiscard]] std::uint64_t uninterested_messages() const;

  /// Cumulative (event, subscriber) delivery counters across all recorded
  /// events — the flight recorder diffs these between samples to report
  /// per-window hit ratios.
  [[nodiscard]] std::uint64_t expected_total() const { return expected_; }
  [[nodiscard]] std::uint64_t delivered_total() const { return delivered_; }

  [[nodiscard]] std::size_t events_recorded() const { return events_; }
  [[nodiscard]] const std::vector<NodeTraffic>& traffic() const {
    return traffic_;
  }

 private:
  std::vector<NodeTraffic> traffic_;
  support::Histogram delays_;  // per-delivery hops, cleared by reset()
  support::HistogramSet* histograms_ = nullptr;
  std::uint64_t expected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t delay_sum_ = 0;
  std::size_t events_ = 0;
};

/// Point summary used by benches: one row of a paper plot.
struct MetricsSummary {
  double hit_ratio = 0.0;
  double traffic_overhead_pct = 0.0;  // global relay-traffic share, percent
  double delay_hops = 0.0;

  static MetricsSummary from(const MetricsCollector& collector);
};

}  // namespace vitis::pubsub
