#include "pubsub/metrics.hpp"

#include "support/check.hpp"

namespace vitis::pubsub {

MetricsCollector::MetricsCollector(std::size_t node_count)
    : traffic_(node_count) {}

void MetricsCollector::on_message(ids::NodeIndex node, bool interested) {
  VITIS_DCHECK(node < traffic_.size());
  if (interested) {
    ++traffic_[node].interested;
  } else {
    ++traffic_[node].uninterested;
  }
}

void MetricsCollector::on_delivery(std::size_t hops) {
  delays_.record(hops);
  if (histograms_ != nullptr) {
    histograms_->record(support::Channel::kDeliveryHops, hops);
  }
}

void MetricsCollector::on_report(const DisseminationReport& report) {
  VITIS_DCHECK(report.delivered <= report.expected);
  expected_ += report.expected;
  delivered_ += report.delivered;
  delay_sum_ += report.delay_sum;
  ++events_;
  // Per-publication latency: the event's worst delivery hop, in cycles of
  // δt (one hop = one transmission = one gossip period). Events that
  // reached no subscriber record 0.
  if (histograms_ != nullptr) {
    histograms_->record(support::Channel::kPublicationLatency,
                        report.max_delay);
  }
}

void MetricsCollector::reset() {
  for (auto& t : traffic_) t = NodeTraffic{};
  expected_ = 0;
  delivered_ = 0;
  delay_sum_ = 0;
  events_ = 0;
  delays_.reset();
}

double MetricsCollector::hit_ratio() const {
  return expected_ == 0 ? 1.0
                        : static_cast<double>(delivered_) /
                              static_cast<double>(expected_);
}

double MetricsCollector::mean_delay_hops() const {
  return delivered_ == 0 ? 0.0
                         : static_cast<double>(delay_sum_) /
                               static_cast<double>(delivered_);
}

double MetricsCollector::mean_node_overhead() const {
  double sum = 0.0;
  std::size_t active = 0;
  for (const auto& t : traffic_) {
    if (t.total() == 0) continue;
    sum += t.overhead_fraction();
    ++active;
  }
  return active == 0 ? 0.0 : sum / static_cast<double>(active);
}

double MetricsCollector::global_overhead() const {
  std::uint64_t uninterested = 0;
  std::uint64_t total = 0;
  for (const auto& t : traffic_) {
    uninterested += t.uninterested;
    total += t.total();
  }
  return overhead_ratio(uninterested, total);
}

std::vector<double> MetricsCollector::node_overhead_fractions() const {
  std::vector<double> fractions;
  fractions.reserve(traffic_.size());
  for (const auto& t : traffic_) {
    if (t.total() == 0) continue;
    fractions.push_back(t.overhead_fraction());
  }
  return fractions;
}

std::uint64_t MetricsCollector::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& t : traffic_) total += t.total();
  return total;
}

std::uint64_t MetricsCollector::uninterested_messages() const {
  std::uint64_t total = 0;
  for (const auto& t : traffic_) total += t.uninterested;
  return total;
}

MetricsSummary MetricsSummary::from(const MetricsCollector& collector) {
  MetricsSummary summary;
  summary.hit_ratio = collector.hit_ratio();
  // The paper's line plots report "the proportion of relay (uninteresting)
  // traffic that nodes experience" in aggregate; the per-node breakdown is
  // only used for the Fig. 5 distribution (node_overhead_fractions()).
  summary.traffic_overhead_pct = collector.global_overhead() * 100.0;
  summary.delay_hops = collector.mean_delay_hops();
  return summary;
}

}  // namespace vitis::pubsub
