// IPTV scenario: channels with very skewed popularity (a few hot channels,
// a long tail) and viewers that come and go — the bandwidth-sensitive,
// churn-heavy use case the paper's introduction motivates. Demonstrates the
// churn API: nodes join/leave while events stream, and the overlay keeps
// delivering.
//
//   ./iptv_churn [--viewers 800] [--channels 120] [--hours 48] [--seed 5]
#include <cstdio>

#include "core/vitis_system.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "workload/churn_driver.hpp"
#include "workload/publication.hpp"
#include "workload/scenario.hpp"
#include "workload/skype_churn.hpp"

int main(int argc, char** argv) {
  using namespace vitis;
  const support::CliArgs args(argc, argv);
  const auto viewers = static_cast<std::size_t>(args.get_int("viewers", 800));
  const auto channels =
      static_cast<std::size_t>(args.get_int("channels", 120));
  const auto hours = static_cast<std::size_t>(args.get_int("hours", 48));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  // 1. Viewers subscribe to a handful of channels; channel popularity is
  //    power-law (hot channels get most of the traffic).
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = viewers;
  params.subscriptions.topics = channels;
  params.subscriptions.subs_per_node = 6;
  params.subscriptions.pattern = workload::CorrelationPattern::kLowCorrelation;
  params.rate_alpha = 1.2;
  params.seed = seed;
  const auto scenario = workload::make_synthetic_scenario(params);

  // 2. Viewer sessions: heavy-tailed watch times.
  workload::SkypeChurnParams churn;
  churn.nodes = viewers;
  churn.duration_hours = static_cast<double>(hours);
  churn.mean_session_hours = 3.0;
  churn.mean_offline_hours = 6.0;
  churn.initial_online_fraction = 0.35;
  churn.flash_crowd_time_hours = static_cast<double>(hours) / 2.0;
  churn.flash_crowd_size = viewers / 5;  // prime-time rush
  churn.flash_crowd_stay_hours = 3.0;
  sim::Rng rng(seed);
  const auto trace = workload::make_skype_churn(churn, rng);

  // 3. Run: 4 gossip cycles per hour, stream events continuously.
  auto system = workload::make_vitis(scenario, core::VitisConfig{}, seed,
                                     /*start_online=*/false);
  sim::Rng pub_rng(seed ^ 0xcafef00dULL);
  workload::ChurnDriver driver(trace);
  driver.attach(*system);
  std::printf("hour  online  hit%%    overhead%%  delay\n");
  for (std::size_t hour = 0; hour < hours; ++hour) {
    (void)driver.advance_to(static_cast<double>(hour + 1) * 3600.0);
    system->run_cycles(4);
    if (hour < 4 || system->alive_count() < 20) continue;  // warm-up

    system->metrics().reset();
    const auto schedule = workload::make_schedule(
        scenario.subscriptions, scenario.rates, 40, pub_rng,
        [&](ids::NodeIndex n) { return system->is_alive(n); });
    const auto summary = workload::measure(*system, schedule);
    if (hour % 4 == 0 ||
        hour == static_cast<std::size_t>(churn.flash_crowd_time_hours)) {
      std::printf("%4zu  %6zu  %6.2f  %9.1f  %5.2f%s\n", hour,
                  system->alive_count(), summary.hit_ratio * 100,
                  summary.traffic_overhead_pct, summary.delay_hops,
                  hour == static_cast<std::size_t>(churn.flash_crowd_time_hours)
                      ? "   <- prime-time rush"
                      : "");
    }
  }
  std::printf("\nviewers watched their channels through churn; relay traffic "
              "stayed low because hot channels cluster their viewers.\n");
  return 0;
}
