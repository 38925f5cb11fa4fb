#include "pubsub/dissemination.hpp"

namespace vitis::pubsub {

Dissemination::Dissemination(std::size_t node_count,
                             const SubscriptionTable& subscriptions,
                             MetricsCollector& metrics,
                             support::Recorder& recorder,
                             std::uint64_t trace_seed)
    : subscriptions_(subscriptions),
      metrics_(metrics),
      recorder_(recorder),
      trace_rng_(trace_seed),
      visit_(node_count, 0),
      mark_(node_count, 0) {
  fifo_.reserve(64);
}

DisseminationReport Dissemination::finish() {
  if (traced_) recorder_.end_trace(report_.expected, report_.delivered);
  metrics_.on_report(report_);
  return report_;
}

}  // namespace vitis::pubsub
