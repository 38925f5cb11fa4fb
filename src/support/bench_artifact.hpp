// Machine-readable bench artifact: one BENCH_<name>.json per bench binary,
// recording per-point parameters, the paper metrics, and runtime telemetry.
// This is the file future PRs regress performance against and
// tools/fill_experiments.py prefers over scraping bench_output.txt.
//
// Schema (version 7):
//   {
//     "schema_version": 7,
//     "bench": "<short bench name, e.g. fig04_friends_vs_sw>",
//     "git_describe": "<git describe --always --dirty at configure time>",
//     "scale": {"name": "quick", "nodes": N, "topics": T,
//               "cycles": C, "events": E},
//     "seed": 42,
//     "jobs": 1,
//     "points": [
//       {"params":    {"<key>": <number|string>, ...},
//        "metrics":   {"<key>": <number>, ...},
//        "distributions": {"<channel>": {"count": ..., "sum": ...,
//                                        "max": ..., "p50": ..., "p90": ...,
//                                        "p99": ...,
//                                        "buckets": [{"lo": ..., "hi": ...,
//                                                     "count": ...}, ...]},
//                          ...per non-empty support::Channel...},
//        "telemetry": {"wall_ms": ..., "peak_rss_kb": ...,
//                      "peak_rss_bytes": ..., "cycles": ...,
//                      "messages": ..., "cycles_per_second": ...,
//                      "run_jobs": ...,
//                      "parallel": {"peer-sampling": {"busy_ms": ...,
//                                                     "span_ms": ...,
//                                                     "efficiency": ...,
//                                                     "workers": [<busy_ms
//                                                       per lane>, ...]},
//                                   ...per stage...},
//                      "phases": {"sampling": {"calls": ..., "wall_ms": ...},
//                                 "tman": ..., "ranking": ..., "relay": ...,
//                                 "routing": ..., "delivery": ...,
//                                 "observe": ..., "election": ...},
//                      "counters": {"utility_cache_hits": ...,
//                                   "utility_cache_misses": ...,
//                                   "utility_cache_evictions": ...,
//                                   "utility_cache_invalidations": ...,
//                                   "interned_sets": ...,
//                                   "intern_calls": ...}},
//        "timeseries": {"stride": S,
//                       "samples": [{"cycle": ...,
//                                    "gauges": {"alive_nodes": ..., ...},
//                                    "phase_calls": {"sampling": ..., ...}},
//                                   ...]}},
//       ...
//     ],
//     "totals": {"points": P, "wall_ms": sum, "peak_rss_kb": max,
//                "peak_rss_bytes": max, "cycles": sum, "messages": sum,
//                "cycles_per_second": max over points (v6; the capacity
//                                     gauge — thread-scaling points make a
//                                     paced mean meaningless),
//                "phases": {...summed...},
//                "counters": {...summed...},
//                "distributions": {...bucket-merged across points...},
//                "traces": <publication traces recorded across points>}
//   }
//
// Everything under "params"/"metrics"/"distributions" is deterministic per
// (seed, scale) — the distribution bucket counts are exact event tallies
// and must be bit-identical across --jobs/--run-jobs;
// "telemetry" and "totals" carry the wall-clock/RSS measurements and vary
// between runs. Within "phases", "calls" counts protocol activations and is
// deterministic per (seed, scale); "wall_ms" is exclusive (self) time per
// support/profiler.hpp and varies between runs. "counters" carries the
// deterministic scoring-cache/interning event counters (support::Counter).
// The "timeseries" block is the flight recorder's per-cycle overlay-health
// series (deterministic per (seed, scale)). Gauges that are undefined for a
// window (e.g. hit ratio with no events) serialize as null.
//
// Empty-block omission (v4): "phases" is omitted when every phase has zero
// calls and zero wall, "counters" when every counter is zero, and a point's
// "timeseries" when the recorder was off for that point (stride 0, no
// samples) — micro-bench points stay compact while figure benches keep the
// full blocks. Consumers must treat a missing block as all-zero/disabled.
// Version history:
//   v1 — params/metrics/telemetry without phases.
//   v2 — adds the per-phase breakdown to telemetry and totals.
//   v3 — adds the per-point "timeseries" block and the totals trace count;
//        route traces live in the TRACE_<name>.jsonl sidecar
//        (write_traces()).
//   v4 — adds the "delivery"/"observe"/"election" phases and the telemetry
//        "counters" block; empty phases/counters/timeseries blocks are
//        omitted.
//   v5 — adds the capacity gauges: per-point/totals "peak_rss_bytes" (same
//        high-water mark as peak_rss_kb, byte-resolution) and
//        "cycles_per_second" (maintenance throughput over the wall time
//        spent inside run_cycles; 0 for points that ran no cycles).
//   v6 — adds the intra-run parallelism telemetry: per-point "run_jobs"
//        (the cycle-engine worker count; simulated output is bit-identical
//        for any value, so it NEVER appears in params/metrics/scale or on
//        stdout) and the optional "parallel" block (per-stage busy/span
//        wall plus busy/(span × run_jobs) efficiency, omitted for systems
//        without a sharded engine). totals "cycles_per_second" becomes the
//        max over points: with thread-scaling points in one sweep, the
//        paced mean of v5 would average over different worker counts.
//   v7 — adds the distribution telemetry: per-point and totals
//        "distributions" blocks (support::Histogram channels: sparse
//        non-empty log-linear buckets plus derived count/sum/max and
//        p50/p90/p99; deterministic, hence OUTSIDE "telemetry"; empty
//        channels and all-empty blocks are omitted) and the per-stage
//        "workers" busy split inside the "parallel" block (wall time, so it
//        stays INSIDE telemetry). Stages with zero busy or span are now
//        omitted from "parallel", so efficiency is always in (0, 1].
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/run_stats.hpp"

namespace vitis::support {

class BenchArtifact {
 public:
  /// A scalar usable as a point parameter or metric value.
  struct Scalar {
    enum class Kind { kInt, kDouble, kString };
    Kind kind = Kind::kInt;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
  };

  class Point {
   public:
    Point& param(std::string key, std::int64_t value);
    Point& param(std::string key, std::size_t value) {
      return param(std::move(key), static_cast<std::int64_t>(value));
    }
    Point& param(std::string key, int value) {
      return param(std::move(key), static_cast<std::int64_t>(value));
    }
    Point& param(std::string key, double value);
    Point& param(std::string key, std::string value);
    Point& param(std::string key, const char* value) {
      return param(std::move(key), std::string(value));
    }

    Point& metric(std::string key, double value);

    Point& set_telemetry(const RunTelemetry& telemetry);

    [[nodiscard]] const RunTelemetry& telemetry() const { return telemetry_; }

   private:
    friend class BenchArtifact;
    std::vector<std::pair<std::string, Scalar>> params_;
    std::vector<std::pair<std::string, double>> metrics_;
    RunTelemetry telemetry_;
  };

  explicit BenchArtifact(std::string bench_name);

  void set_scale(std::string name, std::size_t nodes, std::size_t topics,
                 std::size_t cycles, std::size_t events);
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  void set_jobs(std::size_t jobs) { jobs_ = jobs; }
  void set_git_describe(std::string describe) {
    git_describe_ = std::move(describe);
  }

  Point& add_point();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  /// Publication traces recorded across all points (telemetry.traces).
  [[nodiscard]] std::size_t trace_count() const;

  /// Serialize the whole artifact (schema above) as one JSON document.
  [[nodiscard]] std::string to_json() const;

  /// Write to_json() to `path`; false (with no partial file guarantees) on
  /// I/O failure.
  bool write(const std::string& path) const;

  /// Write every recorded publication trace as JSON Lines: one object per
  /// trace, tagged with its point index. False on I/O failure.
  bool write_traces(const std::string& path) const;

 private:
  std::string name_;
  std::string git_describe_ = "unknown";
  std::string scale_name_ = "quick";
  std::size_t nodes_ = 0;
  std::size_t topics_ = 0;
  std::size_t cycles_ = 0;
  std::size_t events_ = 0;
  std::uint64_t seed_ = 0;
  std::size_t jobs_ = 1;
  std::vector<Point> points_;
};

}  // namespace vitis::support
