// Cross-system integration tests: the paper's qualitative claims, verified
// end-to-end at small scale on the exact code paths the benches use.
#include <gtest/gtest.h>

#include "sim/churn.hpp"
#include "workload/scenario.hpp"
#include "workload/skype_churn.hpp"
#include "workload/twitter.hpp"

namespace vitis {
namespace {

workload::SyntheticScenario scenario_for(workload::CorrelationPattern pattern,
                                         std::uint64_t seed) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 500;
  params.subscriptions.topics = 250;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = pattern;
  params.events = 100;
  params.seed = seed;
  return workload::make_synthetic_scenario(params);
}

TEST(Integration, VitisBeatsRvrOnTrafficOverhead) {
  // The headline claim: "the traffic overhead in Vitis is between 40% and
  // 75% less than the first base-line solution."
  const auto scenario =
      scenario_for(workload::CorrelationPattern::kHighCorrelation, 61);
  core::VitisConfig vc;
  baselines::rvr::RvrConfig rc;
  auto vitis_system = workload::make_vitis(scenario, vc, 61);
  auto rvr_system = workload::make_rvr(scenario, rc, 61);
  const auto sv = workload::run_measurement(*vitis_system, 40,
                                            scenario.schedule);
  const auto sr = workload::run_measurement(*rvr_system, 40,
                                            scenario.schedule);
  // Rare single-event misses from not-yet-refreshed tree state are within
  // protocol behavior; both systems must sit at (or next to) full delivery.
  EXPECT_GE(sv.hit_ratio, 0.999);
  EXPECT_GE(sr.hit_ratio, 0.999);
  EXPECT_LT(sv.traffic_overhead_pct, 0.6 * sr.traffic_overhead_pct);
}

TEST(Integration, VitisExploitsEvenRandomSubscriptions) {
  // "Even when the subscriptions are random, the traffic overhead in Vitis
  // is less than one third compared to that of RVR" — we assert < 2/3 at
  // this reduced scale.
  const auto scenario =
      scenario_for(workload::CorrelationPattern::kRandom, 67);
  auto vitis_system =
      workload::make_vitis(scenario, core::VitisConfig{}, 67);
  auto rvr_system =
      workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 67);
  const auto sv = workload::run_measurement(*vitis_system, 40,
                                            scenario.schedule);
  const auto sr = workload::run_measurement(*rvr_system, 40,
                                            scenario.schedule);
  EXPECT_LT(sv.traffic_overhead_pct, sr.traffic_overhead_pct * 2.0 / 3.0);
}

TEST(Integration, CorrelationImprovesVitisButNotRvr) {
  const auto high =
      scenario_for(workload::CorrelationPattern::kHighCorrelation, 71);
  const auto random = scenario_for(workload::CorrelationPattern::kRandom, 71);
  auto vitis_high = workload::make_vitis(high, core::VitisConfig{}, 71);
  auto vitis_random = workload::make_vitis(random, core::VitisConfig{}, 71);
  const auto sh = workload::run_measurement(*vitis_high, 40, high.schedule);
  const auto sr =
      workload::run_measurement(*vitis_random, 40, random.schedule);
  EXPECT_LT(sh.traffic_overhead_pct, sr.traffic_overhead_pct);
  EXPECT_LT(sh.delay_hops, sr.delay_hops);
}

TEST(Integration, BiggerRoutingTablesReduceOverhead) {
  // Fig. 6 in miniature.
  const auto scenario =
      scenario_for(workload::CorrelationPattern::kLowCorrelation, 73);
  core::VitisConfig small;
  small.routing_table_size = 12;
  core::VitisConfig large;
  large.routing_table_size = 28;
  auto a = workload::make_vitis(scenario, small, 73);
  auto b = workload::make_vitis(scenario, large, 73);
  const auto sa = workload::run_measurement(*a, 40, scenario.schedule);
  const auto sb = workload::run_measurement(*b, 40, scenario.schedule);
  EXPECT_LT(sb.traffic_overhead_pct, sa.traffic_overhead_pct);
}

TEST(Integration, SkewedRatesPullRandomTowardCorrelatedBehavior) {
  // Fig. 7 in miniature: with a hot-topic skew, the rate-weighted utility
  // clusters the random workload better than uniform rates do.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 500;
  params.subscriptions.topics = 250;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
  params.events = 150;
  params.seed = 79;
  params.rate_alpha = 0.0;  // uniform
  const auto uniform_scenario = workload::make_synthetic_scenario(params);
  params.rate_alpha = 2.5;  // heavily skewed
  const auto skewed_scenario = workload::make_synthetic_scenario(params);

  auto uniform_system =
      workload::make_vitis(uniform_scenario, core::VitisConfig{}, 79);
  auto skewed_system =
      workload::make_vitis(skewed_scenario, core::VitisConfig{}, 79);
  const auto su = workload::run_measurement(*uniform_system, 40,
                                            uniform_scenario.schedule);
  const auto ss = workload::run_measurement(*skewed_system, 40,
                                            skewed_scenario.schedule);
  EXPECT_LT(ss.traffic_overhead_pct, su.traffic_overhead_pct);
}

TEST(Integration, TwitterWorkloadRunsAcrossAllThreeSystems) {
  // Fig. 10 in miniature: Vitis and RVR reach full delivery, OPT-bounded
  // does not; OPT has zero overhead; Vitis is the fastest.
  sim::Rng rng(83);
  workload::TwitterModelParams tparams;
  tparams.users = 900;
  tparams.min_out = 4;
  tparams.max_out = 200;
  const auto full = workload::make_twitter_subscriptions(tparams, rng);
  const auto table = workload::sample_twitter(full, 600, rng);
  const auto rates = workload::PublicationRates::uniform(table.topic_count());
  auto schedule = workload::make_schedule(table, rates, 120, rng);

  const auto weights = rates.weights();
  core::VitisSystem vitis_system(
      core::VitisConfig{}, table,
      std::vector<double>(weights.begin(), weights.end()), 83);
  baselines::rvr::RvrSystem rvr_system(baselines::rvr::RvrConfig{}, table, 83);
  baselines::opt::OptConfig oc;
  baselines::opt::OptSystem opt_system(oc, table, 83);

  const auto sv = workload::run_measurement(vitis_system, 40, schedule);
  const auto sr = workload::run_measurement(rvr_system, 40, schedule);
  const auto so = workload::run_measurement(opt_system, 40, schedule);

  EXPECT_GT(sv.hit_ratio, 0.99);
  EXPECT_GT(sr.hit_ratio, 0.99);
  EXPECT_LT(so.hit_ratio, 0.9999);  // bounded OPT misses some subscribers
                                    // (the gap widens with network size)
  EXPECT_DOUBLE_EQ(so.traffic_overhead_pct, 0.0);
  EXPECT_LT(sv.traffic_overhead_pct, sr.traffic_overhead_pct);
  EXPECT_LT(sv.delay_hops, sr.delay_hops);
}

TEST(Integration, ChurnPlaybackKeepsVitisDelivering) {
  // Fig. 12 in miniature: run a generated Skype-like trace against Vitis
  // with the join/leave hooks wired to the playback.
  workload::SkypeChurnParams cparams;
  cparams.nodes = 300;
  cparams.duration_hours = 60.0;
  cparams.flash_crowd_time_hours = 30.0;
  cparams.flash_crowd_size = 80;
  cparams.flash_crowd_stay_hours = 10.0;
  cparams.initial_online_fraction = 0.3;
  sim::Rng rng(89);
  const auto trace = workload::make_skype_churn(cparams, rng);

  workload::SyntheticScenarioParams sparams;
  sparams.subscriptions.nodes = 300;
  sparams.subscriptions.topics = 100;
  sparams.subscriptions.subs_per_node = 12;
  sparams.subscriptions.pattern =
      workload::CorrelationPattern::kLowCorrelation;
  sparams.seed = 89;
  const auto scenario = workload::make_synthetic_scenario(sparams);

  auto system = workload::make_vitis(scenario, core::VitisConfig{}, 89,
                                     /*start_online=*/false);

  // 1 cycle per simulated hour.
  const double cycle_s = 3600.0;
  std::size_t next_event = 0;
  const auto& events = trace.events();
  double hit_sum = 0.0;
  int windows = 0;
  sim::Rng pub_rng(90);
  for (std::size_t cycle = 0; cycle < 60; ++cycle) {
    const double t = static_cast<double>(cycle + 1) * cycle_s;
    while (next_event < events.size() && events[next_event].time_s < t) {
      const auto& e = events[next_event++];
      if (e.join) {
        system->node_join(e.node);
      } else {
        system->node_leave(e.node);
      }
    }
    system->run_cycles(1);
    if (cycle >= 20 && cycle % 5 == 0 && system->alive_count() > 20) {
      system->metrics().reset();
      const auto schedule = workload::make_schedule(
          scenario.subscriptions, scenario.rates, 20, pub_rng,
          [&](ids::NodeIndex n) { return system->is_alive(n); });
      const auto summary = workload::measure(*system, schedule);
      hit_sum += summary.hit_ratio;
      ++windows;
    }
  }
  ASSERT_GT(windows, 0);
  EXPECT_GT(hit_sum / windows, 0.95);
}

TEST(Integration, SameSeedSameResultsAcrossSystems) {
  const auto scenario =
      scenario_for(workload::CorrelationPattern::kLowCorrelation, 97);
  for (int run = 0; run < 2; ++run) {
    auto rvr_a = workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 5);
    auto rvr_b = workload::make_rvr(scenario, baselines::rvr::RvrConfig{}, 5);
    const auto sa = workload::run_measurement(*rvr_a, 20, scenario.schedule);
    const auto sb = workload::run_measurement(*rvr_b, 20, scenario.schedule);
    EXPECT_DOUBLE_EQ(sa.traffic_overhead_pct, sb.traffic_overhead_pct);
    EXPECT_DOUBLE_EQ(sa.delay_hops, sb.delay_hops);
  }
}

}  // namespace
}  // namespace vitis
