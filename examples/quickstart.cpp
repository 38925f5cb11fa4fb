// Quickstart: build a small Vitis network, let the gossip converge, publish
// a few events, and print the three paper metrics.
//
//   ./quickstart [--nodes 500] [--topics 200] [--cycles 40] [--events 100]
#include <cstdio>

#include "core/vitis_system.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace vitis;
  const support::CliArgs args(argc, argv);

  // 1. Describe the workload: who subscribes to what, who publishes.
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes =
      static_cast<std::size_t>(args.get_int("nodes", 500));
  params.subscriptions.topics =
      static_cast<std::size_t>(args.get_int("topics", 200));
  params.subscriptions.subs_per_node =
      static_cast<std::size_t>(args.get_int("subs", 20));
  params.subscriptions.pattern = workload::CorrelationPattern::kHighCorrelation;
  params.events = static_cast<std::size_t>(args.get_int("events", 100));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto scenario = workload::make_synthetic_scenario(params);

  // 2. Configure and build the Vitis overlay.
  core::VitisConfig config;
  config.routing_table_size = 15;
  config.structural_links = 3;  // predecessor + successor + 1 small-world
  config.gateway_depth = 5;
  auto system = workload::make_vitis(scenario, config, params.seed);

  // 3. Gossip until the hybrid overlay converges.
  const auto cycles = static_cast<std::size_t>(args.get_int("cycles", 40));
  std::printf("running %zu gossip cycles over %zu nodes...\n", cycles,
              system->node_count());
  system->run_cycles(cycles);

  // 4. Publish the schedule and report the paper's three metrics.
  system->metrics().reset();
  const auto summary = workload::measure(*system, scenario.schedule);
  std::printf("events published   : %zu\n", scenario.schedule.size());
  std::printf("hit ratio          : %s\n",
              support::format_percent(summary.hit_ratio, 2).c_str());
  std::printf("traffic overhead   : %s\n",
              support::format_fixed(summary.traffic_overhead_pct, 1).c_str());
  std::printf("propagation delay  : %s hops\n",
              support::format_fixed(summary.delay_hops, 2).c_str());

  // 5. Peek at the structure Vitis built.
  const auto overlay = system->overlay_snapshot();
  std::printf("overlay edges      : %zu (avg degree %s)\n",
              overlay.edge_count(),
              support::format_fixed(2.0 * static_cast<double>(
                                              overlay.edge_count()) /
                                        static_cast<double>(
                                            system->node_count()),
                                    1)
                  .c_str());
  return summary.hit_ratio > 0.5 ? 0 : 1;
}
