// Experiment assembly helpers shared by benches, examples and integration
// tests: one place that knows how to build a synthetic scenario, warm a
// system up, and take a measurement window.
#pragma once

#include <memory>
#include <string>

#include "baselines/opt/opt_system.hpp"
#include "baselines/rvr/rvr_system.hpp"
#include "core/vitis_system.hpp"
#include "workload/publication.hpp"
#include "workload/subscription_models.hpp"

namespace vitis::workload {

/// A ready-to-run synthetic scenario: subscriptions + rates + schedule.
struct SyntheticScenario {
  pubsub::SubscriptionTable subscriptions;
  PublicationRates rates;
  std::vector<pubsub::Publication> schedule;
};

struct SyntheticScenarioParams {
  SyntheticSubscriptionParams subscriptions;
  /// <= 0 selects uniform publication rates; otherwise the power-law alpha.
  double rate_alpha = 0.0;
  std::size_t events = 400;
  std::uint64_t seed = 42;
};

[[nodiscard]] SyntheticScenario make_synthetic_scenario(
    const SyntheticScenarioParams& params);

/// Build a Vitis system over a scenario (copies the subscription table).
[[nodiscard]] std::unique_ptr<core::VitisSystem> make_vitis(
    const SyntheticScenario& scenario, const core::VitisConfig& config,
    std::uint64_t seed, bool start_online = true);

/// Build an RVR baseline over a scenario.
[[nodiscard]] std::unique_ptr<baselines::rvr::RvrSystem> make_rvr(
    const SyntheticScenario& scenario, const baselines::rvr::RvrConfig& config,
    std::uint64_t seed, bool start_online = true);

/// Build an OPT baseline over a scenario.
[[nodiscard]] std::unique_ptr<baselines::opt::OptSystem> make_opt(
    const SyntheticScenario& scenario, const baselines::opt::OptConfig& config,
    std::uint64_t seed, bool start_online = true);

/// Publish every event in `schedule`, then summarize the collector. Does not
/// reset metrics beforehand, so callers can window measurements themselves.
[[nodiscard]] pubsub::MetricsSummary measure(
    core::OverlaySystem& system, std::span<const pubsub::Publication> schedule);

/// Warm a system up for `warmup_cycles`, reset metrics, publish the whole
/// schedule, and summarize — the measurement recipe every static experiment
/// in §IV uses.
[[nodiscard]] pubsub::MetricsSummary run_measurement(
    core::OverlaySystem& system, std::size_t warmup_cycles,
    std::span<const pubsub::Publication> schedule);

/// Bounds for a randomized fault scenario, expanded into a concrete
/// sim::FaultConfig by drawing from the caller's scenario RNG (the fault
/// plan itself replays from its own seed^"fault" stream, so the draw here
/// only picks the plan, never its per-message coin flips).
struct FaultScenarioParams {
  std::size_t nodes = 0;           ///< network size (for crash targets)
  std::size_t fault_start = 0;     ///< first faulty cycle
  std::size_t fault_end = 0;       ///< first healthy cycle (exclusive)
  double max_drop = 0.3;           ///< drop probability drawn in [0, max]
  double max_delay = 0.2;          ///< delay probability drawn in [0, max]
  double partition_chance = 0.5;   ///< probability of one bipartition window
  double max_crash_fraction = 0.05;  ///< crashes drawn in [0, frac * nodes]
};

/// Draw one concrete fault plan inside `params`' bounds from `rng`.
[[nodiscard]] sim::FaultConfig make_fault_config(
    const FaultScenarioParams& params, sim::Rng& rng);

}  // namespace vitis::workload
