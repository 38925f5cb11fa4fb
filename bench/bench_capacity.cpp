// Capacity — memory footprint & maintenance throughput vs network size.
//
// Not a paper figure: this bench feeds the "Memory layout & scale tiers"
// capacity model in DESIGN.md. Each system runs a node-count ladder
// (¼, ½ and 1× the scale's size, topics scaled proportionally) through the
// standard measurement recipe, then reports its deterministic logical
// footprint (core::OverlaySystem::memory_footprint(): the routing slab,
// per-node columns, relay tables, sampling views, adjacency and
// dissemination stamps — live sizes and fixed capacities only, never
// allocator capacity). Bytes/node is the headline column; it should
// stay flat across the ladder (per-node state is O(view + RT + subs), not
// O(N)). Hit ratio rides along as a works-at-this-size sanity check.
//
// The OS-level gauges — peak_rss_bytes (process high-water mark, so later
// points inherit earlier points' peak) and cycles_per_second (maintenance
// throughput inside run_cycles) — are nondeterministic and land only in the
// schema-v5 JSON artifact, never on stdout.
//
// The `--scale massive` tier starts here: a smoke run scales it down with
// the usual overrides, e.g.
//   bench_capacity --scale massive --nodes 100000 --topics 10000
//                  --cycles 10 --events 50
#include <cstddef>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace vitis;

enum class System { kVitis, kRvr, kOpt };

constexpr const char* kSystemNames[3] = {"vitis", "rvr", "opt"};

// One sweep point: system × ladder rung (plus an optional fixed engine
// worker count for the thread-scaling appendix).
struct Point {
  System system = System::kVitis;
  std::size_t rung = 0;      // index into the node ladder
  std::size_t run_jobs = 0;  // 0 = the context's --run-jobs
};

// The sweep body's result: paper metrics plus the deterministic footprint.
struct CapacityResult {
  pubsub::MetricsSummary summary;
  std::size_t memory_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  bench::print_banner(ctx, "Capacity",
                      "memory footprint & throughput vs network size");

  // Ladder: ¼, ½, 1× of the scale's node count, topics kept proportional so
  // subscription density (and thus per-node profile size) stays comparable.
  const std::size_t ladder_num[3] = {1, 2, 4};
  std::vector<std::size_t> ladder_nodes;
  std::vector<std::size_t> ladder_topics;
  std::vector<workload::SyntheticScenario> scenarios;
  for (const std::size_t num : ladder_num) {
    const std::size_t nodes =
        std::max<std::size_t>(std::size_t{64}, ctx.scale.nodes * num / 4);
    const std::size_t topics = std::max<std::size_t>(
        std::size_t{64}, ctx.scale.topics * num / 4);
    ladder_nodes.push_back(nodes);
    ladder_topics.push_back(topics);
    auto params = bench::synthetic_params(
        ctx, workload::CorrelationPattern::kRandom);
    params.subscriptions.nodes = nodes;
    params.subscriptions.topics = topics;
    scenarios.push_back(workload::make_synthetic_scenario(params));
  }

  // Ascending sizes, all systems per rung: the largest (most interesting)
  // points run last, so their artifact peak_rss_bytes is least polluted by
  // other points' allocations.
  std::vector<Point> points;
  for (std::size_t rung = 0; rung < ladder_nodes.size(); ++rung) {
    for (int s = 0; s < 3; ++s) {
      points.push_back(Point{static_cast<System>(s), rung});
    }
  }

  // Thread-scaling appendix (schema v6): Vitis at the ½× rung under a fixed
  // engine-worker ladder. Appended after the 9 ladder points so the stdout
  // tables (which index outcomes[0..8]) are untouched; the extra points are
  // bit-identical in params/metrics and differ only in wall-clock telemetry
  // (telemetry.run_jobs / telemetry.parallel), which is where the --run-jobs
  // speedup is recorded. They run in a serial sweep of their own after the
  // ladder: inside the ladder's --jobs sweep their engine workers would
  // compete with the other points for the same cores.
  const std::size_t kScalingRung = 1;
  std::vector<Point> scaling;
  for (const std::size_t engine_jobs : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
    scaling.push_back(Point{System::kVitis, kScalingRung, engine_jobs});
  }

  const auto measure = [&](const Point& point,
                           support::RunTelemetry& telemetry) -> CapacityResult {
    const auto& scenario = scenarios[point.rung];
    telemetry.cycles = ctx.scale.cycles;
    std::unique_ptr<core::OverlaySystem> system;
    switch (point.system) {
      case System::kVitis: {
        core::VitisConfig config = bench::with_run_jobs(ctx);
        if (point.run_jobs > 0) config.run_jobs = point.run_jobs;
        system = workload::make_vitis(scenario, config, ctx.seed);
        break;
      }
      case System::kRvr:
        system = workload::make_rvr(
            scenario, bench::with_run_jobs(ctx, baselines::rvr::RvrConfig{}),
            ctx.seed);
        break;
      case System::kOpt:
        system = workload::make_opt(
            scenario, bench::with_run_jobs(ctx, baselines::opt::OptConfig{}),
            ctx.seed);
        break;
    }
    bench::enable_recorder(ctx, *system, ctx.scale.cycles);
    CapacityResult result;
    result.summary = workload::run_measurement(*system, ctx.scale.cycles,
                                               scenario.schedule);
    result.memory_bytes = system->memory_footprint();
    telemetry.messages = system->metrics().total_messages();
    bench::record_phases(telemetry, *system);
    return result;
  };
  auto outcomes = bench::sweep(ctx, points, measure);
  bench::BenchContext serial = ctx;
  serial.jobs = 1;
  for (auto& outcome : bench::sweep(serial, scaling, measure)) {
    outcomes.push_back(std::move(outcome));
  }
  points.insert(points.end(), scaling.begin(), scaling.end());

  const auto bytes_per_node = [&](std::size_t i) {
    return static_cast<double>(outcomes[i].result.memory_bytes) /
           static_cast<double>(ladder_nodes[points[i].rung]);
  };

  analysis::TableWriter footprint(
      {"nodes", "topics", "vitis-MB", "rvr-MB", "opt-MB"});
  analysis::TableWriter per_node({"nodes", "vitis-B/node", "rvr-B/node",
                                  "opt-B/node"});
  analysis::TableWriter sanity({"nodes", "vitis-hit", "rvr-hit", "opt-hit"});
  constexpr double kMiB = 1024.0 * 1024.0;
  for (std::size_t rung = 0; rung < ladder_nodes.size(); ++rung) {
    const std::size_t base = rung * 3;
    footprint.add_numeric_row(
        {static_cast<double>(ladder_nodes[rung]),
         static_cast<double>(ladder_topics[rung]),
         static_cast<double>(outcomes[base + 0].result.memory_bytes) / kMiB,
         static_cast<double>(outcomes[base + 1].result.memory_bytes) / kMiB,
         static_cast<double>(outcomes[base + 2].result.memory_bytes) / kMiB});
    per_node.add_numeric_row({static_cast<double>(ladder_nodes[rung]),
                              bytes_per_node(base + 0),
                              bytes_per_node(base + 1),
                              bytes_per_node(base + 2)},
                             1);
    sanity.add_numeric_row({static_cast<double>(ladder_nodes[rung]),
                            outcomes[base + 0].result.summary.hit_ratio,
                            outcomes[base + 1].result.summary.hit_ratio,
                            outcomes[base + 2].result.summary.hit_ratio},
                           3);
  }

  std::printf("--- capacity: logical memory footprint (MiB) ---\n");
  bench::emit(ctx, footprint);
  std::printf("--- capacity: logical bytes per node ---\n");
  std::printf("%s\n", per_node.to_text().c_str());
  std::printf("--- capacity: hit-ratio sanity at each size ---\n");
  std::printf("%s\n", sanity.to_text().c_str());

  auto artifact = bench::make_artifact(ctx, "capacity");
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto& record = artifact.add_point();
    record.param("system", kSystemNames[static_cast<int>(points[i].system)]);
    record.param("nodes", ladder_nodes[points[i].rung]);
    record.param("topics", ladder_topics[points[i].rung]);
    record.metric("memory_bytes",
                  static_cast<double>(outcomes[i].result.memory_bytes));
    record.metric("bytes_per_node", bytes_per_node(i));
    bench::add_summary_metrics(record, outcomes[i].result.summary);
    record.set_telemetry(outcomes[i].telemetry);
  }
  bench::write_artifact(ctx, artifact);
  return 0;
}
