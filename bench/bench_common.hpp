// Shared helpers for the figure-reproduction bench binaries.
//
// Every binary accepts:
//   --scale quick|paper|massive   (or env REPRO_SCALE; default quick)
//   --nodes/--topics/--cycles/--events N   (override individual knobs)
//   --seed N
//   --jobs N              (worker threads for the sweep; or env REPRO_JOBS)
//   --run-jobs N          (worker threads inside each simulation's cycle
//                          engine; or env REPRO_RUN_JOBS; output is
//                          bit-identical for any value)
//   --csv path            (also dump the table as CSV)
//   --json path           (override the BENCH_<name>.json artifact path)
//   --observe             (flight recorder: health time series + invariant
//                          monitors; timeseries lands in the JSON artifact)
//   --observe-stride N    (sample every N cycles; 0 = auto, ~16 samples)
//   --trace-sample P      (route-trace probability per publication while
//                          observing; traces land in TRACE_<name>.jsonl)
//   --log-level L         (trace|debug|info|warn|error; stderr only)
//
// "quick" preserves all qualitative shapes at ~1/5 the paper's size;
// "paper" matches §IV-A (10,000 nodes, 5,000 topics, 50 subs/node).
//
// Benches declare their experiment as a list of parameter points and hand
// it to sweep(): each point runs as an independent deterministic simulation
// (own sim::Rng, own system instance), points are distributed over a
// bounded worker pool, and outcomes come back in declaration order — so
// stdout is byte-identical whatever --jobs is. Telemetry (wall time, peak
// RSS, cycles, messages) is confined to the JSON artifact and stderr.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "support/bench_artifact.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "support/log.hpp"
#include "support/recorder.hpp"
#include "support/sweep.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace vitis::bench {

struct BenchContext {
  support::BenchScale scale;
  std::uint64_t seed = 42;
  std::size_t jobs = 1;
  /// Cycle-engine workers per simulation (--run-jobs). Purely a wall-clock
  /// knob: simulated output is bit-identical at any value, so it never
  /// appears in banners, tables, or artifact params — only in telemetry.
  std::size_t run_jobs = 1;
  std::string csv_path;   // empty = no CSV dump
  std::string json_path;  // empty = BENCH_<name>.json in the working dir

  /// Flight-recorder request (--observe family); expected_cycles and an
  /// auto stride are filled per system by enable_recorder().
  support::RecorderConfig observe;

  static BenchContext from_args(int argc, char** argv) {
    const support::CliArgs args(argc, argv);
    BenchContext ctx;
    ctx.scale = support::resolve_scale(args);
    ctx.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    const std::int64_t env_jobs = [] {
      const auto env = support::env_string("REPRO_JOBS");
      return env.has_value() ? std::strtoll(env->c_str(), nullptr, 10)
                             : std::int64_t{1};
    }();
    const std::int64_t jobs = args.get_int("jobs", env_jobs);
    ctx.jobs = jobs > 1 ? static_cast<std::size_t>(jobs) : 1;
    const std::int64_t env_run_jobs = [] {
      const auto env = support::env_string("REPRO_RUN_JOBS");
      return env.has_value() ? std::strtoll(env->c_str(), nullptr, 10)
                             : std::int64_t{1};
    }();
    const std::int64_t run_jobs = args.get_int("run-jobs", env_run_jobs);
    ctx.run_jobs = run_jobs > 1 ? static_cast<std::size_t>(run_jobs) : 1;
    ctx.csv_path = args.get_string("csv", "");
    ctx.json_path = args.get_string("json", "");
    ctx.observe.enabled = args.get_bool("observe", false);
    ctx.observe.invariants = ctx.observe.enabled;
    ctx.observe.stride =
        static_cast<std::size_t>(args.get_int("observe-stride", 0));
    ctx.observe.trace_rate = args.get_double("trace-sample", 0.05);
    const std::string level = args.get_string("log-level", "");
    if (!level.empty()) {
      if (const auto parsed = support::parse_log_level(level)) {
        support::set_log_level(*parsed);
      } else {
        support::log_warn("unknown --log-level '" + level + "' ignored");
      }
    }
    return ctx;
  }
};

inline void print_banner(const BenchContext& ctx, const char* figure,
                         const char* description) {
  std::printf("== %s — %s ==\n", figure, description);
  std::printf(
      "scale=%s nodes=%zu topics=%zu cycles=%zu events=%zu seed=%llu\n\n",
      ctx.scale.name.c_str(), ctx.scale.nodes, ctx.scale.topics,
      ctx.scale.cycles, ctx.scale.events,
      static_cast<unsigned long long>(ctx.seed));
}

inline void emit(const BenchContext& ctx, const analysis::TableWriter& table) {
  std::printf("%s\n", table.to_text().c_str());
  if (!ctx.csv_path.empty()) {
    table.save_csv(ctx.csv_path);
    std::printf("(csv written to %s)\n", ctx.csv_path.c_str());
  }
}

/// Synthetic-scenario parameters at the bench scale.
inline workload::SyntheticScenarioParams synthetic_params(
    const BenchContext& ctx, workload::CorrelationPattern pattern,
    double rate_alpha = 0.0) {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = ctx.scale.nodes;
  params.subscriptions.topics = ctx.scale.topics;
  params.subscriptions.subs_per_node = 50;
  params.subscriptions.pattern = pattern;
  params.rate_alpha = rate_alpha;
  params.events = ctx.scale.events;
  params.seed = ctx.seed;
  return params;
}

inline const char* pattern_label(workload::CorrelationPattern pattern) {
  return workload::to_string(pattern);
}

/// Apply the context's --run-jobs to a system config. Three overloads so
/// bench bodies can wrap whatever config they build; the knob only moves
/// wall-clock, never simulated output.
inline core::VitisConfig with_run_jobs(const BenchContext& ctx,
                                       core::VitisConfig config = {}) {
  config.run_jobs = ctx.run_jobs;
  return config;
}
inline baselines::rvr::RvrConfig with_run_jobs(
    const BenchContext& ctx, baselines::rvr::RvrConfig config) {
  config.base.run_jobs = ctx.run_jobs;
  return config;
}
inline baselines::opt::OptConfig with_run_jobs(
    const BenchContext& ctx, baselines::opt::OptConfig config) {
  config.base.run_jobs = ctx.run_jobs;
  return config;
}

// --- sweep execution -------------------------------------------------------

/// Run the declared parameter points through support::run_sweep with the
/// context's worker-pool size, then report the sweep's shape to stderr
/// (stdout stays reserved for the deterministic tables).
template <typename Point, typename Fn>
[[nodiscard]] auto sweep(const BenchContext& ctx,
                         const std::vector<Point>& points, Fn&& fn) {
  support::WallTimer timer;
  auto outcomes =
      support::run_sweep(points, ctx.jobs, std::forward<Fn>(fn));
  support::log_info(
      "sweep: " + std::to_string(points.size()) + " points, jobs=" +
      std::to_string(support::effective_jobs(points.size(), ctx.jobs)) +
      ", " + support::format_fixed(timer.elapsed_ms() / 1000.0, 1) + " s, " +
      "peak rss " + std::to_string(support::peak_rss_kb() / 1024) + " MB");
  return outcomes;
}

// --- artifact emission -----------------------------------------------------

/// Start the BENCH_<name>.json artifact for this bench run. `name` is the
/// bench's short name (binary name without the "bench_" prefix).
inline support::BenchArtifact make_artifact(const BenchContext& ctx,
                                            const std::string& name) {
  support::BenchArtifact artifact(name);
  artifact.set_scale(ctx.scale.name, ctx.scale.nodes, ctx.scale.topics,
                     ctx.scale.cycles, ctx.scale.events);
  artifact.set_seed(ctx.seed);
  artifact.set_jobs(ctx.jobs);
  artifact.set_git_describe(support::git_describe());
  return artifact;
}

/// The paper's three metrics under their canonical artifact keys.
inline void add_summary_metrics(support::BenchArtifact::Point& point,
                                const pubsub::MetricsSummary& summary) {
  point.metric("hit_ratio", summary.hit_ratio);
  point.metric("traffic_overhead_pct", summary.traffic_overhead_pct);
  point.metric("delay_hops", summary.delay_hops);
}

/// Turn on `system`'s flight recorder per the context's --observe request.
/// `expected_cycles` pre-sizes the sample buffer; stride 0 resolves to
/// ~16 samples across the run. No-op (and zero-cost) without --observe.
inline void enable_recorder(const BenchContext& ctx,
                            core::OverlaySystem& system,
                            std::size_t expected_cycles) {
  if (!ctx.observe.enabled) return;
  support::RecorderConfig config = ctx.observe;
  config.expected_cycles = expected_cycles;
  if (config.stride == 0) {
    config.stride = std::max<std::size_t>(std::size_t{1}, expected_cycles / 16);
  }
  system.configure_recorder(config);
}

/// Copy `system`'s per-phase profiler stats and deterministic event
/// counters (scoring cache, interning) into the point's telemetry.
/// Call it inside the sweep body, right before the system is destroyed.
/// With the flight recorder enabled this also captures the health time
/// series and route traces (both deterministic per (seed, scale)).
inline void record_phases(support::RunTelemetry& telemetry,
                          const core::OverlaySystem& system) {
  const support::Profiler& profiler = *system.profiler();
  telemetry.phases = profiler.all();
  telemetry.counters = profiler.counters();
  // Schema-v5 throughput gauge; telemetry-only like wall_ms.
  telemetry.cycles_per_second = system.cycles_per_second();
  // Schema-v6 parallelism telemetry: worker count and per-stage busy/span.
  telemetry.run_jobs = system.run_jobs();
  telemetry.parallel = system.parallel_phases();
  if (const support::Recorder& rec = *system.recorder(); rec.enabled()) {
    telemetry.series = rec.series();
    telemetry.traces = rec.traces();
  }
  // Schema-v7 distribution channels (lane-merged; deterministic per
  // (seed, scale) — they land in the point's `distributions` block, not in
  // the telemetry object).
  telemetry.distributions = system.distributions()->merged_all();
}

/// With --observe, one stderr digest line per point summarizing the run's
/// final health sample — long massive-tier runs become diagnosable without
/// opening the JSON. Runs on the main thread after the sweep (workers must
/// never log), in declaration order, from deterministic recorder data.
inline void emit_health_digest(const BenchContext& ctx,
                               const support::BenchArtifact& artifact) {
  if (!ctx.observe.enabled) return;
  const auto gauge_text = [](const support::TimeSeriesSample& sample,
                             support::Gauge gauge, int decimals) {
    const double value = sample.gauges[static_cast<std::size_t>(gauge)];
    return std::isnan(value) ? std::string("n/a")
                             : support::format_fixed(value, decimals);
  };
  const auto& points = artifact.points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const support::RunTelemetry& telemetry = points[i].telemetry();
    if (telemetry.series.samples.empty()) continue;
    const support::TimeSeriesSample& last = telemetry.series.samples.back();
    support::log_info(
        "health[" + std::to_string(i) + "]: cycle=" +
        std::to_string(last.cycle) + " clusters/topic=" +
        gauge_text(last, support::Gauge::kMeanClustersPerTopic, 3) +
        " ring=" + gauge_text(last, support::Gauge::kRingConsistency, 3) +
        " hit=" + gauge_text(last, support::Gauge::kWindowHitRatio, 3) +
        " traces=" + std::to_string(telemetry.traces.size()));
  }
}

/// Write the artifact (default path BENCH_<name>.json, `--json` overrides)
/// and note the location on stderr.
inline void write_artifact(const BenchContext& ctx,
                           const support::BenchArtifact& artifact) {
  emit_health_digest(ctx, artifact);
  const std::string path = ctx.json_path.empty()
                               ? "BENCH_" + artifact.name() + ".json"
                               : ctx.json_path;
  if (artifact.write(path)) {
    support::log_info("artifact written to " + path);
  } else {
    support::log_warn("failed to write artifact " + path);
  }
  if (artifact.trace_count() > 0) {
    const std::string trace_path = "TRACE_" + artifact.name() + ".jsonl";
    if (artifact.write_traces(trace_path)) {
      support::log_info(std::to_string(artifact.trace_count()) +
                       " route traces written to " + trace_path);
    } else {
      support::log_warn("failed to write traces " + trace_path);
    }
  }
}

}  // namespace vitis::bench
