// Fig. 12 — "Measurements with Skype trace for churn in the network".
//
// A Skype-like churn trace (heavy-tailed sessions, diurnal breathing, one
// flash crowd) is played against Vitis and RVR; every sample window we
// publish a batch of events from alive subscribers and record network size,
// hit ratio, traffic overhead and propagation delay over simulated time.
//
// Paper shapes: both tolerate moderate churn; under the flash crowd RVR's
// hit ratio dips (≈87% in the paper) while Vitis stays ≈99%; Vitis overhead
// bumps up slightly during the flash crowd (extra gateways), RVR's drops
// because its trees are broken (missing deliveries, not efficiency).
#include <vector>

#include "bench_common.hpp"
#include "workload/churn_driver.hpp"
#include "workload/skype_churn.hpp"

namespace {

using namespace vitis;

// One sweep point: one system replaying the whole trace. Alive-ness is
// purely trace-determined, so the sample windows (hour, alive count, and
// publication schedule) are precomputed once by replaying the trace into an
// alive bitmap; that makes the Vitis and RVR runs independent while
// reproducing the exact serial numbers.
struct Point {
  int system = 0;  // 0 = vitis, 1 = rvr
};

// A precomputed sample window: simulated hour, network size, and the batch
// of publications to measure with.
struct SampleWindow {
  std::size_t cycle = 0;
  std::size_t alive = 0;
  std::vector<pubsub::Publication> schedule;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vitis;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  bench::print_banner(ctx, "Fig. 12", "hit/overhead/delay under Skype churn");

  // Optional lossy-network layer (off by default; stdout is byte-identical
  // to a build without the fault layer when these stay at their defaults):
  //   --fault-drop P    per-link message drop probability
  //   --fault-delay P   per-hop delay-inflation probability
  //   --fault-seed N    dedicated fault stream seed (0 = derive from --seed)
  //   --fault-heal H    hour at which the plan is lifted (default 3/4 run)
  const support::CliArgs fault_args(argc, argv);
  sim::FaultConfig fault;
  fault.drop = fault_args.get_double("fault-drop", 0.0);
  fault.delay = fault_args.get_double("fault-delay", 0.0);
  fault.seed =
      static_cast<std::uint64_t>(fault_args.get_int("fault-seed", 0));

  // Trace parameters: paper scale follows the Skype measurement (4000-node
  // universe, ~1400 h). One gossip cycle per simulated hour.
  workload::SkypeChurnParams churn;
  const bool paper = ctx.scale.name == "paper";
  churn.nodes = paper ? 4'000 : 1'000;
  churn.duration_hours = paper ? 1'400.0 : 400.0;
  churn.flash_crowd_time_hours = churn.duration_hours / 2.0;
  churn.flash_crowd_size = churn.nodes / 6;
  churn.flash_crowd_spread_hours = 0.25;  // one burst, as in a flash crowd
  churn.flash_crowd_stay_hours = 40.0;
  sim::Rng rng(ctx.seed);
  const auto trace = workload::make_skype_churn(churn, rng);

  workload::SyntheticScenarioParams sparams;
  sparams.subscriptions.nodes = churn.nodes;
  sparams.subscriptions.topics = ctx.scale.topics;
  sparams.subscriptions.subs_per_node = 50;
  sparams.subscriptions.pattern =
      workload::CorrelationPattern::kLowCorrelation;
  sparams.seed = ctx.seed;
  const auto scenario = workload::make_synthetic_scenario(sparams);

  // Gossip periods are seconds in practice while the trace spans weeks; a
  // few protocol cycles per simulated hour keeps repair speed realistic
  // relative to churn without simulating millions of rounds.
  const std::size_t cycles_per_hour = 4;
  const double cycle_s = 3600.0;  // 1 cycle == 1 hour
  const std::size_t total_cycles =
      static_cast<std::size_t>(churn.duration_hours);
  const std::size_t sample_every = paper ? 50 : 20;
  const std::size_t events_per_window = 100;
  const bool faults_enabled = fault.any();
  const std::size_t heal_hour = static_cast<std::size_t>(fault_args.get_int(
      "fault-heal", static_cast<std::int64_t>(total_cycles * 3 / 4)));
  const auto fc = static_cast<std::size_t>(churn.flash_crowd_time_hours);
  const auto near_flash_crowd = [&](std::size_t cycle) {
    // Dense sampling around the flash crowd: the interesting transient
    // (paper: RVR dips to ≈87% while Vitis stays ≈99%) lasts only a few
    // hours, and the paper measures nodes ~10 s after they join — so in
    // flash-crowd hours we sample after a single gossip cycle, mid-
    // absorption, instead of at the settled end of the hour.
    return cycle + 2 >= fc && cycle <= fc + 10;
  };

  // Pass 1: replay the trace into an alive bitmap to precompute every
  // sample window. The schedules consume pub_rng in the same order the
  // serial experiment did.
  std::vector<SampleWindow> windows;
  {
    std::vector<char> alive(churn.nodes, 0);
    std::size_t alive_count = 0;
    workload::ChurnDriver driver(trace);
    driver.add_hook([&](ids::NodeIndex node, bool join) {
      if (join != static_cast<bool>(alive[node])) {
        alive[node] = join ? 1 : 0;
        alive_count += join ? 1 : std::size_t(-1);
      }
    });
    sim::Rng pub_rng(ctx.seed ^ 0x70756273ULL);
    for (std::size_t cycle = 0; cycle < total_cycles; ++cycle) {
      (void)driver.advance_to(static_cast<double>(cycle + 1) * cycle_s);
      const bool warm = cycle >= 20;
      if (warm &&
          (cycle % sample_every == 0 || near_flash_crowd(cycle)) &&
          alive_count > 20) {
        const auto eligible = [&](ids::NodeIndex n) {
          return static_cast<bool>(alive[n]);
        };
        windows.push_back(SampleWindow{
            cycle, alive_count,
            workload::make_schedule(scenario.subscriptions, scenario.rates,
                                    events_per_window, pub_rng, eligible)});
      }
    }
  }

  // Pass 2: each system replays the trace independently and measures at
  // the precomputed windows. The driver needs the concrete system type for
  // its node_join/node_leave hooks, hence the generic replay helper.
  const auto replay = [&](auto& system, support::RunTelemetry& telemetry) {
    workload::ChurnDriver driver(trace);
    driver.attach(system);
    // Upper bound on cycles actually run (flash-crowd bursts run fewer).
    bench::enable_recorder(ctx, system, total_cycles * cycles_per_hour);
    if (faults_enabled) system.set_fault_plan(fault);
    std::vector<pubsub::MetricsSummary> summaries;
    summaries.reserve(windows.size());
    std::size_t next_window = 0;
    for (std::size_t cycle = 0; cycle < total_cycles; ++cycle) {
      if (faults_enabled && cycle == heal_hour) {
        system.set_fault_plan(sim::FaultConfig{});  // faults lifted; heal
      }
      (void)driver.advance_to(static_cast<double>(cycle + 1) * cycle_s);
      const std::size_t burst = near_flash_crowd(cycle) ? 1 : cycles_per_hour;
      system.run_cycles(burst);
      telemetry.cycles += burst;
      if (next_window < windows.size() &&
          windows[next_window].cycle == cycle) {
        telemetry.messages += system.metrics().total_messages();
        system.metrics().reset();
        summaries.push_back(
            workload::measure(system, windows[next_window].schedule));
        ++next_window;
      }
    }
    telemetry.messages += system.metrics().total_messages();
    bench::record_phases(telemetry, system);
    return summaries;
  };

  const std::vector<Point> points{{0}, {1}};
  const auto outcomes = bench::sweep(
      ctx, points,
      [&](const Point& point, support::RunTelemetry& telemetry)
          -> std::vector<pubsub::MetricsSummary> {
        if (point.system == 0) {
          auto system = workload::make_vitis(scenario, bench::with_run_jobs(ctx),
                                             ctx.seed, /*start_online=*/false);
          return replay(*system, telemetry);
        }
        baselines::rvr::RvrConfig rvr_config = bench::with_run_jobs(
            ctx, baselines::rvr::RvrConfig{});
        rvr_config.tree_refresh_interval = 2;  // Scribe repairs aggressively
        auto system = workload::make_rvr(scenario, rvr_config, ctx.seed,
                                         /*start_online=*/false);
        return replay(*system, telemetry);
      });
  const auto& vitis_rows = outcomes[0].result;
  const auto& rvr_rows = outcomes[1].result;

  analysis::TableWriter table({"hour", "alive", "vitis-hit", "rvr-hit",
                               "vitis-ovh", "rvr-ovh", "vitis-delay",
                               "rvr-delay"});
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const auto& sv = vitis_rows[k];
    const auto& sr = rvr_rows[k];
    table.add_row({std::to_string(windows[k].cycle),
                   std::to_string(windows[k].alive),
                   support::format_fixed(sv.hit_ratio * 100, 2),
                   support::format_fixed(sr.hit_ratio * 100, 2),
                   support::format_fixed(sv.traffic_overhead_pct, 1),
                   support::format_fixed(sr.traffic_overhead_pct, 1),
                   support::format_fixed(sv.delay_hops, 2),
                   support::format_fixed(sr.delay_hops, 2)});
  }

  std::printf(
      "--- Fig. 12(a/b/c): time series (flash crowd at hour %.0f) ---\n",
      churn.flash_crowd_time_hours);
  bench::emit(ctx, table);

  auto artifact = bench::make_artifact(ctx, "fig12_churn");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& rows = outcomes[i].result;
    double mean_hit = 0.0, min_hit = rows.empty() ? 0.0 : 1.0;
    double mean_ovh = 0.0, mean_delay = 0.0;
    for (const auto& s : rows) {
      mean_hit += s.hit_ratio;
      min_hit = std::min(min_hit, s.hit_ratio);
      mean_ovh += s.traffic_overhead_pct;
      mean_delay += s.delay_hops;
    }
    const double n = rows.empty() ? 1.0 : static_cast<double>(rows.size());
    auto& record = artifact.add_point();
    record.param("system", points[i].system == 0 ? "vitis" : "rvr");
    record.param("nodes", churn.nodes);
    record.param("duration_hours", churn.duration_hours);
    record.param("flash_crowd_hour", churn.flash_crowd_time_hours);
    if (faults_enabled) {
      record.param("fault_drop", fault.drop);
      record.param("fault_delay", fault.delay);
      record.param("fault_heal_hour", static_cast<double>(heal_hour));
    }
    record.metric("sample_windows", static_cast<double>(rows.size()));
    record.metric("mean_hit_ratio", mean_hit / n);
    if (faults_enabled) {
      // Mean hit ratio over the windows after the plan is lifted — the
      // recovery headline (delivery floor once faults heal).
      double heal_hit = 0.0;
      std::size_t heal_n = 0;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        if (windows[k].cycle >= heal_hour) {
          heal_hit += rows[k].hit_ratio;
          ++heal_n;
        }
      }
      record.metric("post_heal_hit_ratio",
                    heal_n > 0 ? heal_hit / static_cast<double>(heal_n) : 0.0);
    }
    record.metric("min_hit_ratio", min_hit);
    record.metric("mean_traffic_overhead_pct", mean_ovh / n);
    record.metric("mean_delay_hops", mean_delay / n);
    record.set_telemetry(outcomes[i].telemetry);
  }
  bench::write_artifact(ctx, artifact);
  return 0;
}
