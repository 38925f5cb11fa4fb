// Fig. 5 — "Distribution of traffic overhead".
//
// Per-node traffic-overhead fractions for Vitis vs RVR under correlated and
// random subscriptions, binned in 10%-wide buckets (the paper's x axis runs
// 0..100%). Paper shape: Vitis shifts mass below 10-20%; the fraction of
// nodes with more than 20% overhead drops to less than a third of RVR's.
#include <string>
#include <vector>

#include "support/histogram.hpp"
#include "bench_common.hpp"

namespace {

using namespace vitis;

// One sweep point: a (system, subscription pattern) combination.
struct Point {
  bool vitis = true;
  bool correlated = true;
};

// A point's output: the summary metrics plus the per-node overhead
// fractions the Fig. 5 histogram is built from (binning happens on the
// main thread after the sweep).
struct Result {
  pubsub::MetricsSummary summary;
  std::vector<double> fractions;
};

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  bench::print_banner(ctx, "Fig. 5",
                      "per-node distribution of traffic overhead");

  const auto correlated = workload::make_synthetic_scenario(
      bench::synthetic_params(ctx,
                              workload::CorrelationPattern::kHighCorrelation));
  const auto random_scenario = workload::make_synthetic_scenario(
      bench::synthetic_params(ctx, workload::CorrelationPattern::kRandom));

  const std::vector<Point> points{
      {true, true}, {true, false}, {false, true}, {false, false}};

  const auto outcomes = bench::sweep(
      ctx, points,
      [&](const Point& point, support::RunTelemetry& telemetry) -> Result {
        const auto& scenario = point.correlated ? correlated : random_scenario;
        std::unique_ptr<core::OverlaySystem> system;
        if (point.vitis) {
          // defaults: RT 15, k 3, d 5
          system = workload::make_vitis(scenario, bench::with_run_jobs(ctx),
                                        ctx.seed);
        } else {
          system = workload::make_rvr(
              scenario, bench::with_run_jobs(ctx, baselines::rvr::RvrConfig{}),
              ctx.seed);
        }
        bench::enable_recorder(ctx, *system, ctx.scale.cycles);
        Result result;
        result.summary = workload::run_measurement(*system, ctx.scale.cycles,
                                                   scenario.schedule);
        result.fractions = system->metrics().node_overhead_fractions();
        telemetry.cycles = ctx.scale.cycles;
        telemetry.messages = system->metrics().total_messages();
        bench::record_phases(telemetry, *system);
        return result;
      });

  constexpr std::size_t kBins = 10;
  const auto histogram_of = [&](std::size_t index) {
    support::LinearHistogram histogram(0.0, 1.0, kBins);
    histogram.add_all(outcomes[index].result.fractions);
    return histogram;
  };
  const auto h_vc = histogram_of(0);
  const auto h_vr = histogram_of(1);
  const auto h_rc = histogram_of(2);
  const auto h_rr = histogram_of(3);

  analysis::TableWriter table({"overhead-bin", "vitis-corr", "vitis-random",
                               "rvr-corr", "rvr-random"});
  for (std::size_t bin = 0; bin < kBins; ++bin) {
    table.add_row({std::to_string(bin * 10) + "-" +
                       std::to_string((bin + 1) * 10) + "%",
                   support::format_fixed(h_vc.fraction(bin), 3),
                   support::format_fixed(h_vr.fraction(bin), 3),
                   support::format_fixed(h_rc.fraction(bin), 3),
                   support::format_fixed(h_rr.fraction(bin), 3)});
  }
  std::printf("--- Fig. 5: fraction of nodes per overhead bin ---\n");
  bench::emit(ctx, table);

  analysis::TableWriter tails({"system", "nodes >= 20% overhead"});
  tails.add_row({"Vitis (correlated)",
                 support::format_percent(h_vc.tail_fraction(0.2), 1)});
  tails.add_row({"Vitis (random)",
                 support::format_percent(h_vr.tail_fraction(0.2), 1)});
  tails.add_row({"RVR (correlated)",
                 support::format_percent(h_rc.tail_fraction(0.2), 1)});
  tails.add_row({"RVR (random)",
                 support::format_percent(h_rr.tail_fraction(0.2), 1)});
  std::printf("--- paper check: Vitis tail above 20%% < 1/3 of RVR's ---\n");
  std::printf("%s\n", tails.to_text().c_str());

  auto artifact = bench::make_artifact(ctx, "fig05_overhead_distribution");
  const support::LinearHistogram* histograms[4] = {&h_vc, &h_vr, &h_rc, &h_rr};
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto& record = artifact.add_point();
    record.param("system", points[i].vitis ? "vitis" : "rvr");
    record.param("pattern", points[i].correlated ? "high" : "random");
    bench::add_summary_metrics(record, outcomes[i].result.summary);
    record.metric("nodes_above_20pct_overhead",
                  histograms[i]->tail_fraction(0.2));
    record.set_telemetry(outcomes[i].telemetry);
  }
  bench::write_artifact(ctx, artifact);
  return 0;
}
