#include "workload/scenario.hpp"

#include <vector>

namespace vitis::workload {

SyntheticScenario make_synthetic_scenario(
    const SyntheticScenarioParams& params) {
  sim::Rng rng(params.seed);
  auto subscriptions = make_synthetic_subscriptions(params.subscriptions, rng);
  auto rates =
      params.rate_alpha > 0.0
          ? PublicationRates::power_law(params.subscriptions.topics,
                                        params.rate_alpha)
          : PublicationRates::uniform(params.subscriptions.topics);
  auto schedule = make_schedule(subscriptions, rates, params.events, rng);
  return SyntheticScenario{std::move(subscriptions), std::move(rates),
                           std::move(schedule)};
}

std::unique_ptr<core::VitisSystem> make_vitis(const SyntheticScenario& scenario,
                                              const core::VitisConfig& config,
                                              std::uint64_t seed,
                                              bool start_online) {
  const auto weights = scenario.rates.weights();
  return std::make_unique<core::VitisSystem>(
      config, scenario.subscriptions,
      std::vector<double>(weights.begin(), weights.end()), seed, start_online);
}

std::unique_ptr<baselines::rvr::RvrSystem> make_rvr(
    const SyntheticScenario& scenario, const baselines::rvr::RvrConfig& config,
    std::uint64_t seed, bool start_online) {
  return std::make_unique<baselines::rvr::RvrSystem>(
      config, scenario.subscriptions, seed, start_online);
}

std::unique_ptr<baselines::opt::OptSystem> make_opt(
    const SyntheticScenario& scenario, const baselines::opt::OptConfig& config,
    std::uint64_t seed, bool start_online) {
  return std::make_unique<baselines::opt::OptSystem>(
      config, scenario.subscriptions, seed, start_online);
}

sim::FaultConfig make_fault_config(const FaultScenarioParams& params,
                                   sim::Rng& rng) {
  sim::FaultConfig config;
  config.drop = rng.uniform_real(0.0, params.max_drop);
  config.drop_start_cycle = params.fault_start;
  config.drop_end_cycle = params.fault_end;
  config.delay = rng.uniform_real(0.0, params.max_delay);
  config.delay_hops = 1 + static_cast<std::uint32_t>(rng.index(3));
  const std::size_t span = params.fault_end - params.fault_start;
  if (span > 0 && rng.bernoulli(params.partition_chance)) {
    // One bipartition window somewhere inside the faulty phase.
    const std::size_t start = params.fault_start + rng.index(span / 2 + 1);
    const std::size_t len = 1 + rng.index(span - (start - params.fault_start));
    config.partitions.push_back(
        sim::PartitionWindow{start, start + len, rng.next_u64()});
  }
  const std::size_t max_crashes = static_cast<std::size_t>(
      params.max_crash_fraction * static_cast<double>(params.nodes));
  const std::size_t crashes =
      (max_crashes > 0 && span > 0) ? rng.index(max_crashes + 1) : 0;
  for (std::size_t i = 0; i < crashes; ++i) {
    config.crashes.push_back(sim::CrashEvent{
        params.fault_start + rng.index(span),
        static_cast<ids::NodeIndex>(rng.index(params.nodes))});
  }
  return config;
}

pubsub::MetricsSummary measure(
    core::OverlaySystem& system,
    std::span<const pubsub::Publication> schedule) {
  for (const auto& [topic, publisher] : schedule) {
    (void)system.publish(topic, publisher);
  }
  return pubsub::MetricsSummary::from(system.metrics());
}

pubsub::MetricsSummary run_measurement(
    core::OverlaySystem& system, std::size_t warmup_cycles,
    std::span<const pubsub::Publication> schedule) {
  system.run_cycles(warmup_cycles);
  system.metrics().reset();
  return measure(system, schedule);
}

}  // namespace vitis::workload
