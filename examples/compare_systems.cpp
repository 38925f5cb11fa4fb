// Side-by-side comparison of Vitis against both baselines (RVR, OPT) on the
// same workload — a miniature of the paper's §IV evaluation.
//
//   ./compare_systems [--nodes 1000] [--pattern high|low|random]
#include <cstdio>
#include <string>

#include "analysis/load.hpp"
#include "analysis/table.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "workload/scenario.hpp"

namespace {

vitis::workload::CorrelationPattern parse_pattern(const std::string& name) {
  using vitis::workload::CorrelationPattern;
  if (name == "random") return CorrelationPattern::kRandom;
  if (name == "low") return CorrelationPattern::kLowCorrelation;
  return CorrelationPattern::kHighCorrelation;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vitis;
  const support::CliArgs args(argc, argv);

  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes =
      static_cast<std::size_t>(args.get_int("nodes", 1000));
  params.subscriptions.topics =
      static_cast<std::size_t>(args.get_int("topics", 500));
  params.subscriptions.subs_per_node =
      static_cast<std::size_t>(args.get_int("subs", 25));
  params.subscriptions.pattern =
      parse_pattern(args.get_string("pattern", "high"));
  params.events = static_cast<std::size_t>(args.get_int("events", 200));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const auto scenario = workload::make_synthetic_scenario(params);

  const auto cycles = static_cast<std::size_t>(args.get_int("cycles", 40));
  const std::size_t rt_size =
      static_cast<std::size_t>(args.get_int("rt", 15));

  analysis::TableWriter table({"system", "hit ratio", "traffic overhead",
                               "delay (hops)", "p99 delay", "load gini"});
  const auto add = [&](core::OverlaySystem& system) {
    const auto summary =
        workload::run_measurement(system, cycles, scenario.schedule);
    table.add_row(
        {system.name(), support::format_percent(summary.hit_ratio, 1),
         support::format_fixed(summary.traffic_overhead_pct, 1) + "%",
         support::format_fixed(summary.delay_hops, 2),
         std::to_string(system.metrics().delay_percentile(0.99)),
         support::format_fixed(
             analysis::gini_coefficient(
                 analysis::node_message_loads(system.metrics())),
             2)});
  };

  core::VitisConfig vitis_config;
  vitis_config.routing_table_size = rt_size;
  add(*workload::make_vitis(scenario, vitis_config, params.seed));

  baselines::rvr::RvrConfig rvr_config;
  rvr_config.base.routing_table_size = rt_size;
  add(*workload::make_rvr(scenario, rvr_config, params.seed));

  baselines::opt::OptConfig opt_config;
  opt_config.base.routing_table_size = rt_size;
  add(*workload::make_opt(scenario, opt_config, params.seed));

  std::printf("workload: %zu nodes, %zu topics, %s pattern, RT=%zu\n\n",
              params.subscriptions.nodes, params.subscriptions.topics,
              workload::to_string(params.subscriptions.pattern), rt_size);
  std::printf("%s", table.to_text().c_str());
  return 0;
}
