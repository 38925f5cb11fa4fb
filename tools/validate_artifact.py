#!/usr/bin/env python3
"""Validate BENCH_<name>.json artifacts against the schema-v7 shape.

Checks every artifact for:

* schema_version 7 (any other version is rejected) and the top-level keys
  (bench, scale, seed, jobs, points, totals);
* the scale block (name/nodes/topics/cycles/events, all integers >= 0);
* per point: params (scalars), metrics (numbers), telemetry (wall_ms,
  peak_rss_kb, cycles, messages, the capacity gauges peak_rss_bytes and
  cycles_per_second, the run_jobs count, the named phases with
  calls/wall_ms, the named counters block and the optional per-stage
  `parallel` block with busy_ms/span_ms/efficiency and the per-worker
  `workers` busy split), and the `timeseries` block — stride plus samples,
  each sample a cycle, the named gauges (number or null: NaN gauges from
  event-free windows serialize as null) and the phase call counters;
* omission rules: "phases", "counters", "timeseries" and "distributions"
  may be absent (all-zero / recorder off / no channel recorded); when
  present they must be complete;
* placement rule: --run-jobs is a wall-clock-only knob, so "run_jobs"
  must NEVER leak into the stdout-affecting fields — params, metrics,
  totals or scale;
* parallel tightenings: efficiency must sit in (0, 1] (zero-span stages
  are omitted by the writer), busy_ms must not exceed span_ms × run_jobs,
  and the `workers` array must have run_jobs entries summing to busy_ms;
* the `distributions` blocks (per point and totals): named
  support::Channel objects with exact count/sum/max integers, monotone
  p50 <= p90 <= p99 <= max quantiles and sparse buckets (lo <= hi,
  strictly ascending, positive counts summing to the channel count);
* totals: points matches len(points), summed phases/counters, the
  capacity gauges (cycles_per_second must equal the max over points), and
  the `traces` count.

A git_describe ending in "-dirty" draws a warning on stderr (the
committed artifacts must be regenerated from a clean tree) but does not
fail validation.

Exit status 0 when every artifact passes; 1 with one line per problem
otherwise. Used by CI after the bench determinism job and available
locally:

    python3 tools/validate_artifact.py [BENCH_*.json ...]

With no arguments, validates every BENCH_*.json in the current directory.
"""
import glob
import json
import numbers
import sys

GAUGES = [
    "alive_nodes",
    "mean_clusters_per_topic",
    "relay_links",
    "ring_consistency",
    "mean_view_age",
    "max_view_age",
    "window_hit_ratio",
    "window_overhead_pct",
    "utility_cache_hit_rate",
    "shard_imbalance",
]

CHANNELS = [
    "delivery_hops",
    "publication_latency",
    "relay_path_length",
    "routing_table_size",
    "node_messages",
    "stage_activations",
]

PHASES = ["sampling", "tman", "ranking", "relay", "routing", "delivery",
          "observe", "election"]

COUNTERS = [
    "utility_cache_hits",
    "utility_cache_misses",
    "utility_cache_evictions",
    "utility_cache_invalidations",
    "interned_sets",
    "intern_calls",
]


class Checker:
    def __init__(self, path):
        self.path = path
        self.problems = []

    def fail(self, message):
        self.problems.append(f"{self.path}: {message}")

    def warn(self, message):
        print(f"validate_artifact: warning: {self.path}: {message}",
              file=sys.stderr)

    def require(self, condition, message):
        if not condition:
            self.fail(message)
        return condition

    def is_count(self, value):
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def is_number(self, value):
        return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_phases(c, phases, where):
    if phases is None:  # omitted when every phase is zero
        return
    if not c.require(isinstance(phases, dict), f"{where}: phases is not an object"):
        return
    for name in PHASES:
        stats = phases.get(name)
        if not c.require(isinstance(stats, dict), f"{where}: phase '{name}' missing"):
            continue
        c.require(c.is_count(stats.get("calls")), f"{where}: {name}.calls not a count")
        c.require(c.is_number(stats.get("wall_ms")), f"{where}: {name}.wall_ms not a number")
    for name in phases:
        c.require(name in PHASES, f"{where}: unknown phase '{name}'")


def check_counters(c, counters, where):
    if counters is None:  # omitted when every counter is zero
        return
    if not c.require(isinstance(counters, dict), f"{where}: counters is not an object"):
        return
    for name in COUNTERS:
        c.require(c.is_count(counters.get(name)),
                  f"{where}: counter '{name}' not a count")
    for name in counters:
        c.require(name in COUNTERS, f"{where}: unknown counter '{name}'")


def check_timeseries(c, series, where):
    if series is None:  # omitted with the recorder off
        return
    if not c.require(isinstance(series, dict), f"{where}: timeseries is not an object"):
        return
    c.require(c.is_count(series.get("stride")), f"{where}: timeseries.stride not a count")
    samples = series.get("samples")
    if not c.require(isinstance(samples, list), f"{where}: timeseries.samples not an array"):
        return
    if series.get("stride") == 0:
        c.require(samples == [], f"{where}: disabled recorder (stride 0) with samples")
    last_cycle = -1
    for i, sample in enumerate(samples):
        at = f"{where}: sample[{i}]"
        if not c.require(isinstance(sample, dict), f"{at} is not an object"):
            continue
        cycle = sample.get("cycle")
        if c.require(c.is_count(cycle), f"{at}: cycle not a count"):
            c.require(cycle > last_cycle, f"{at}: cycles not strictly increasing")
            last_cycle = cycle
        sample_gauges = sample.get("gauges")
        if c.require(isinstance(sample_gauges, dict), f"{at}: gauges not an object"):
            for name in GAUGES:
                if not c.require(name in sample_gauges, f"{at}: gauge '{name}' missing"):
                    continue
                value = sample_gauges[name]
                # null is legal: NaN gauges (event-free windows) serialize so.
                c.require(value is None or c.is_number(value),
                          f"{at}: gauge '{name}' is neither number nor null")
            for name in sample_gauges:
                c.require(name in GAUGES, f"{at}: unknown gauge '{name}'")
        calls = sample.get("phase_calls")
        if c.require(isinstance(calls, dict), f"{at}: phase_calls not an object"):
            for name in PHASES:
                c.require(c.is_count(calls.get(name)),
                          f"{at}: phase_calls.{name} not a count")


def check_parallel(c, parallel, where, run_jobs):
    if parallel is None:  # optional: serial systems omit the block
        return
    if not c.require(isinstance(parallel, dict) and parallel,
                     f"{where}: parallel is not a non-empty object"):
        return
    known = ("busy_ms", "span_ms", "efficiency", "workers")
    for stage, stats in parallel.items():
        at = f"{where}: parallel['{stage}']"
        if not c.require(isinstance(stats, dict), f"{at} is not an object"):
            continue
        for key in ("busy_ms", "span_ms", "efficiency"):
            c.require(c.is_number(stats.get(key)), f"{at}: {key} not a number")
        for key in stats:
            c.require(key in known, f"{at}: unknown key '{key}'")
        # efficiency is busy/(span × run_jobs) — a utilization over a
        # non-empty section, so it must land in (0, 1].
        eff = stats.get("efficiency")
        if c.is_number(eff):
            c.require(0.0 < eff <= 1.0 + 1e-9,
                      f"{at}: efficiency {eff!r} outside (0, 1]")
        busy, span = stats.get("busy_ms"), stats.get("span_ms")
        if c.is_number(busy) and c.is_number(span) and c.is_count(run_jobs):
            c.require(busy <= span * run_jobs * (1.0 + 1e-6),
                      f"{at}: busy_ms {busy!r} exceeds span_ms × run_jobs")
        workers = stats.get("workers")
        if workers is not None:
            if c.require(isinstance(workers, list), f"{at}: workers not an array"):
                c.require(len(workers) == run_jobs,
                          f"{at}: workers has {len(workers)} entries, "
                          f"want run_jobs={run_jobs}")
                if all(c.is_number(w) for w in workers):
                    c.require(all(w >= 0.0 for w in workers),
                              f"{at}: negative worker busy time")
                    if c.is_number(busy):
                        c.require(abs(sum(workers) - busy) <=
                                  1e-6 * max(1.0, abs(busy)),
                                  f"{at}: workers sum != busy_ms")
                else:
                    c.fail(f"{at}: workers entries not all numbers")


def check_distributions(c, distributions, where):
    if distributions is None:  # omitted when no channel recorded a value
        return
    if not c.require(isinstance(distributions, dict) and distributions,
                     f"{where}: distributions is not a non-empty object"):
        return
    for name, channel in distributions.items():
        at = f"{where}: distributions['{name}']"
        if not c.require(name in CHANNELS, f"{at}: unknown channel"):
            continue
        if not c.require(isinstance(channel, dict), f"{at} is not an object"):
            continue
        for key in ("count", "sum", "max", "p50", "p90", "p99"):
            c.require(c.is_count(channel.get(key)), f"{at}: {key} not a count")
        quantiles = [channel.get(k) for k in ("p50", "p90", "p99", "max")]
        if all(c.is_count(q) for q in quantiles):
            c.require(quantiles == sorted(quantiles),
                      f"{at}: quantiles not monotone (p50<=p90<=p99<=max)")
        buckets = channel.get("buckets")
        if not c.require(isinstance(buckets, list) and buckets,
                         f"{at}: buckets not a non-empty array"):
            continue
        total, previous_lo = 0, -1
        for i, bucket in enumerate(buckets):
            bat = f"{at}: bucket[{i}]"
            if not c.require(isinstance(bucket, dict), f"{bat} is not an object"):
                continue
            lo, hi, count = bucket.get("lo"), bucket.get("hi"), bucket.get("count")
            for key, value in (("lo", lo), ("hi", hi), ("count", count)):
                c.require(c.is_count(value), f"{bat}: {key} not a count")
            if c.is_count(lo) and c.is_count(hi):
                c.require(lo <= hi, f"{bat}: lo > hi")
                c.require(lo > previous_lo, f"{bat}: buckets not ascending")
                previous_lo = lo
            if c.is_count(count):
                c.require(count > 0, f"{bat}: empty bucket serialized")
                total += count
        c.require(total == channel.get("count"),
                  f"{at}: bucket counts sum to {total}, "
                  f"want count={channel.get('count')!r}")


def check_telemetry(c, telemetry, where):
    if not c.require(isinstance(telemetry, dict), f"{where}: telemetry is not an object"):
        return
    for key in ("wall_ms", "cycles_per_second"):
        c.require(c.is_number(telemetry.get(key)), f"{where}: telemetry.{key} not a number")
    for key in ("peak_rss_kb", "peak_rss_bytes", "cycles", "messages"):
        c.require(c.is_count(telemetry.get(key)), f"{where}: telemetry.{key} not a count")
    c.require(c.is_count(telemetry.get("run_jobs")) and
              telemetry.get("run_jobs", 0) >= 1,
              f"{where}: telemetry.run_jobs not a positive count")
    check_parallel(c, telemetry.get("parallel"), f"{where}: telemetry",
                   telemetry.get("run_jobs"))
    check_phases(c, telemetry.get("phases"), f"{where}: telemetry")
    check_counters(c, telemetry.get("counters"), f"{where}: telemetry")


def check_artifact(path):
    c = Checker(path)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        c.fail(f"unreadable: {err}")
        return c.problems

    if not c.require(isinstance(doc, dict), "top level is not an object"):
        return c.problems
    version = doc.get("schema_version")
    if not c.require(version == 7, f"schema_version is {version!r}, want 7"):
        return c.problems
    c.require(isinstance(doc.get("bench"), str) and doc["bench"],
              "bench name missing")
    if c.require(isinstance(doc.get("git_describe"), str), "git_describe missing"):
        if doc["git_describe"].endswith("-dirty"):
            c.warn("git_describe ends with '-dirty' — regenerate the "
                   "recorded artifacts from a clean tree before committing")
    c.require(c.is_count(doc.get("seed")), "seed not a count")
    c.require(c.is_count(doc.get("jobs")) and doc.get("jobs", 0) >= 1,
              "jobs not a positive count")

    scale = doc.get("scale")
    if c.require(isinstance(scale, dict), "scale is not an object"):
        c.require(isinstance(scale.get("name"), str), "scale.name missing")
        for key in ("nodes", "topics", "cycles", "events"):
            c.require(c.is_count(scale.get(key)), f"scale.{key} not a count")
        c.require("run_jobs" not in scale,
                  "scale mentions run_jobs (stdout-affecting; telemetry-only)")

    points = doc.get("points")
    if not c.require(isinstance(points, list) and points, "points missing or empty"):
        return c.problems
    for i, point in enumerate(points):
        where = f"points[{i}]"
        if not c.require(isinstance(point, dict), f"{where} is not an object"):
            continue
        params = point.get("params")
        if c.require(isinstance(params, dict), f"{where}: params not an object"):
            for key, value in params.items():
                c.require(isinstance(value, str) or c.is_number(value),
                          f"{where}: param '{key}' is not a scalar")
            c.require("run_jobs" not in params,
                      f"{where}: params mention run_jobs "
                      "(stdout-affecting; telemetry-only)")
        metrics = point.get("metrics")
        if c.require(isinstance(metrics, dict), f"{where}: metrics not an object"):
            for key, value in metrics.items():
                c.require(value is None or c.is_number(value),
                          f"{where}: metric '{key}' is not a number")
            c.require("run_jobs" not in metrics,
                      f"{where}: metrics mention run_jobs "
                      "(stdout-affecting; telemetry-only)")
        check_telemetry(c, point.get("telemetry"), where)
        check_distributions(c, point.get("distributions"), where)
        check_timeseries(c, point.get("timeseries"), where)

    totals = doc.get("totals")
    if c.require(isinstance(totals, dict), "totals is not an object"):
        c.require(totals.get("points") == len(points),
                  f"totals.points {totals.get('points')!r} != {len(points)} points")
        for key in ("peak_rss_kb", "cycles", "messages", "traces"):
            c.require(c.is_count(totals.get(key)), f"totals.{key} not a count")
        c.require(c.is_number(totals.get("wall_ms")), "totals.wall_ms not a number")
        c.require(c.is_count(totals.get("peak_rss_bytes")),
                  "totals.peak_rss_bytes not a count")
        c.require(c.is_number(totals.get("cycles_per_second")),
                  "totals.cycles_per_second not a number")
        if c.is_number(totals.get("cycles_per_second")):
            # The total is the max over points (thread-scaling sweeps make
            # a paced mean meaningless) — hold the writer to it.
            rates = [p.get("telemetry", {}).get("cycles_per_second")
                     for p in points if isinstance(p, dict)
                     and isinstance(p.get("telemetry"), dict)]
            rates = [r for r in rates if c.is_number(r)]
            if rates:
                expected = max(rates)
                got = totals["cycles_per_second"]
                c.require(abs(got - expected) <= 1e-9 * max(1.0, abs(expected)),
                          f"totals.cycles_per_second {got!r} != max over "
                          f"points {expected!r}")
        for key in ("run_jobs", "parallel"):
            c.require(key not in totals,
                      f"totals mention {key} (stdout-affecting; telemetry-only)")
        check_distributions(c, totals.get("distributions"), "totals")
        check_phases(c, totals.get("phases"), "totals")
        check_counters(c, totals.get("counters"), "totals")
    return c.problems


def main():
    paths = sys.argv[1:] or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("validate_artifact: no BENCH_*.json found", file=sys.stderr)
        return 1
    problems = []
    for path in paths:
        problems.extend(check_artifact(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"validate_artifact: {len(problems)} problem(s) in "
              f"{len(paths)} artifact(s)", file=sys.stderr)
        return 1
    print(f"validate_artifact: {len(paths)} artifact(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
