#!/usr/bin/env python3
"""Compare two trees of BENCH_<name>.json artifacts: the perf-regression gate.

Usage:

    python3 tools/perf_diff.py BASELINE CANDIDATE [options]

BASELINE and CANDIDATE are directories (every BENCH_*.json inside is
picked up) or single artifact files. Artifacts pair up by the BENCH_
filename stem (BENCH_capacity_massive.json -> capacity_massive) — not by
the embedded "bench" name, which the quick- and massive-scale capacity
recordings share. A stem present on only one side is reported and
skipped.

Two comparison planes, matching the schema's determinism contract
(src/support/bench_artifact.hpp):

* Deterministic fields — bench/seed/scale, per-point params and metrics,
  the v7 "distributions" blocks (exact bucket counts), phase call counts,
  the "counters" block, the deterministic cycle/message tallies, the
  flight-recorder "timeseries" and totals.traces. ANY drift here is a
  protocol behavior change and fails the gate (exit 1). The recorder
  block is compared only when both sides carry it (one-sided presence —
  e.g. one tree generated without --observe — draws a warning, not a
  failure).
* Wall-clock fields — totals.wall_ms and totals.cycles_per_second. A
  candidate slower than baseline × (1 + --wall-tolerance) draws a
  warning; with --fail-on-wall it fails the gate instead. Skipped
  entirely under --deterministic-only (the CI mode: shared runners make
  wall time too noisy to gate on).

Wall mode also names the layer that moved: per bench it prints the
per-phase wall_ms deltas (telemetry.phases, summed over points) and the
per-stage span_ms deltas (telemetry.parallel), ranked by absolute size.
That table is informational and never fails the gate.

git_describe, jobs, run_jobs and RSS are ignored — they legitimately
vary between runs.

Exit status: 0 clean, 1 on deterministic drift (or wall regression with
--fail-on-wall), 2 on usage/IO errors.
"""
import argparse
import glob
import json
import os
import sys

# Telemetry keys that are deterministic per (seed, scale) despite living
# in the telemetry block (they are simulated tallies, not measurements).
DETERMINISTIC_TELEMETRY_COUNTS = ("cycles", "messages")

_failures = 0
_warnings = 0


def fail(message):
    global _failures
    _failures += 1
    print(f"perf_diff: FAIL: {message}", file=sys.stderr)


def warn(message):
    global _warnings
    _warnings += 1
    print(f"perf_diff: warn: {message}", file=sys.stderr)


def artifact_key(path, doc):
    """The BENCH_<stem>.json filename stem; unlike the embedded "bench"
    name it distinguishes the quick and massive capacity recordings."""
    base = os.path.basename(path)
    if base.startswith("BENCH_") and base.endswith(".json"):
        return base[len("BENCH_"):-len(".json")]
    return doc.get("bench") or base


def load_tree(spec):
    """Map artifact key -> parsed artifact for a directory or single file."""
    if os.path.isdir(spec):
        paths = sorted(glob.glob(os.path.join(spec, "BENCH_*.json")))
    elif os.path.isfile(spec):
        paths = [spec]
    else:
        print(f"perf_diff: no such file or directory: {spec}", file=sys.stderr)
        sys.exit(2)
    tree = {}
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"perf_diff: unreadable artifact {path}: {err}",
                  file=sys.stderr)
            sys.exit(2)
        tree[artifact_key(path, doc)] = doc
    return tree


def phase_calls(telemetry):
    """The deterministic half of the phases block: name -> calls."""
    phases = telemetry.get("phases") or {}
    return {name: stats.get("calls") for name, stats in phases.items()
            if isinstance(stats, dict)}


def diff_value(bench, where, base, cand):
    """Exact compare with a readable one-line report on mismatch."""
    if base == cand:
        return
    brief_base = json.dumps(base, sort_keys=True)
    brief_cand = json.dumps(cand, sort_keys=True)
    if len(brief_base) + len(brief_cand) > 160:
        # Large structures (timeseries, bucket arrays): report, don't dump.
        fail(f"{bench}: {where} differs (deterministic field)")
    else:
        fail(f"{bench}: {where}: baseline {brief_base} != candidate {brief_cand}")


def diff_optional(bench, where, base, cand):
    """Compare a block that may be legitimately absent on one side."""
    if (base is None) != (cand is None):
        side = "baseline" if base is not None else "candidate"
        warn(f"{bench}: {where} present only in {side} "
             "(recorder/observe settings differ?) — not compared")
        return
    if base is not None:
        diff_value(bench, where, base, cand)


def diff_deterministic(bench, base, cand):
    for key in ("seed", "scale"):
        diff_value(bench, key, base.get(key), cand.get(key))

    base_points = base.get("points") or []
    cand_points = cand.get("points") or []
    if len(base_points) != len(cand_points):
        fail(f"{bench}: point count {len(base_points)} != {len(cand_points)}")
        return
    for i, (bp, cp) in enumerate(zip(base_points, cand_points)):
        where = f"points[{i}]"
        diff_value(bench, f"{where}.params", bp.get("params"), cp.get("params"))
        diff_value(bench, f"{where}.metrics", bp.get("metrics"), cp.get("metrics"))
        # distributions: deterministic exact tallies. Absent == empty, but
        # a version skew (v6 baseline vs v7 candidate) is only a warning.
        diff_optional(bench, f"{where}.distributions",
                      bp.get("distributions"), cp.get("distributions"))
        bt = bp.get("telemetry") or {}
        ct = cp.get("telemetry") or {}
        for key in DETERMINISTIC_TELEMETRY_COUNTS:
            diff_value(bench, f"{where}.telemetry.{key}", bt.get(key), ct.get(key))
        diff_value(bench, f"{where}.phase calls", phase_calls(bt), phase_calls(ct))
        diff_value(bench, f"{where}.counters",
                   bt.get("counters"), ct.get("counters"))
        diff_optional(bench, f"{where}.timeseries",
                      bp.get("timeseries"), cp.get("timeseries"))

    base_totals = base.get("totals") or {}
    cand_totals = cand.get("totals") or {}
    for key in DETERMINISTIC_TELEMETRY_COUNTS + ("traces",):
        diff_value(bench, f"totals.{key}",
                   base_totals.get(key), cand_totals.get(key))
    diff_optional(bench, "totals.distributions",
                  base_totals.get("distributions"),
                  cand_totals.get("distributions"))


def diff_wall(bench, base, cand, tolerance, fail_on_wall):
    report = fail if fail_on_wall else warn
    base_totals = base.get("totals") or {}
    cand_totals = cand.get("totals") or {}

    base_wall = base_totals.get("wall_ms")
    cand_wall = cand_totals.get("wall_ms")
    if isinstance(base_wall, (int, float)) and isinstance(cand_wall, (int, float)):
        if base_wall > 0 and cand_wall > base_wall * (1.0 + tolerance):
            report(f"{bench}: totals.wall_ms regressed "
                   f"{base_wall:.1f} -> {cand_wall:.1f} "
                   f"(+{100.0 * (cand_wall / base_wall - 1.0):.1f}%, "
                   f"tolerance {100.0 * tolerance:.0f}%)")

    base_rate = base_totals.get("cycles_per_second")
    cand_rate = cand_totals.get("cycles_per_second")
    if isinstance(base_rate, (int, float)) and isinstance(cand_rate, (int, float)):
        if base_rate > 0 and cand_rate < base_rate * (1.0 - tolerance):
            report(f"{bench}: totals.cycles_per_second regressed "
                   f"{base_rate:.1f} -> {cand_rate:.1f} "
                   f"(-{100.0 * (1.0 - cand_rate / base_rate):.1f}%, "
                   f"tolerance {100.0 * tolerance:.0f}%)")


def summed_over_points(doc, block, field):
    """name -> telemetry[block][name][field] summed over the points."""
    sums = {}
    for point in doc.get("points") or []:
        entries = (point.get("telemetry") or {}).get(block) or {}
        for name, stats in entries.items():
            value = stats.get(field) if isinstance(stats, dict) else None
            if isinstance(value, (int, float)):
                sums[name] = sums.get(name, 0.0) + value
    return sums


def layer_deltas(base, cand):
    """(label, baseline ms, candidate ms) per phase wall and stage span,
    largest absolute delta first."""
    rows = []
    for kind, block, field in (("phase", "phases", "wall_ms"),
                               ("stage", "parallel", "span_ms")):
        base_ms = summed_over_points(base, block, field)
        cand_ms = summed_over_points(cand, block, field)
        for name in sorted(set(base_ms) | set(cand_ms)):
            rows.append((f"{kind} {name} {field}", base_ms.get(name, 0.0),
                         cand_ms.get(name, 0.0)))
    rows.sort(key=lambda row: -abs(row[2] - row[1]))
    return rows


def print_layer_deltas(bench, base, cand):
    rows = layer_deltas(base, cand)
    if not rows:
        return
    print(f"perf_diff: {bench}: layer wall deltas "
          "(summed over points, largest first)")
    for label, base_ms, cand_ms in rows:
        print(f"  {label:<32} {base_ms:12.1f} -> {cand_ms:12.1f} ms "
              f"({cand_ms - base_ms:+.1f})")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json artifact trees.")
    parser.add_argument("baseline", help="baseline dir or artifact file")
    parser.add_argument("candidate", help="candidate dir or artifact file")
    parser.add_argument("--benches", default=None,
                        help="comma-separated bench names to compare "
                             "(default: every bench present on either side)")
    parser.add_argument("--deterministic-only", action="store_true",
                        help="skip the wall-clock comparison (CI mode)")
    parser.add_argument("--wall-tolerance", type=float, default=0.25,
                        help="relative slack before a wall-time regression "
                             "is reported (default 0.25 = 25%%)")
    parser.add_argument("--fail-on-wall", action="store_true",
                        help="treat wall-time regressions as failures, "
                             "not warnings")
    args = parser.parse_args()

    base_tree = load_tree(args.baseline)
    cand_tree = load_tree(args.candidate)
    if args.benches:
        wanted = [b.strip() for b in args.benches.split(",") if b.strip()]
        missing = [b for b in wanted
                   if b not in base_tree and b not in cand_tree]
        if missing:
            print(f"perf_diff: --benches names not found on either side: "
                  f"{', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
    else:
        wanted = sorted(set(base_tree) | set(cand_tree))

    compared = 0
    for bench in wanted:
        base, cand = base_tree.get(bench), cand_tree.get(bench)
        if base is None or cand is None:
            side = "candidate" if base is None else "baseline"
            warn(f"{bench}: only present in {side} — skipped")
            continue
        compared += 1
        diff_deterministic(bench, base, cand)
        if not args.deterministic_only:
            diff_wall(bench, base, cand, args.wall_tolerance,
                      args.fail_on_wall)
            print_layer_deltas(bench, base, cand)

    mode = "deterministic-only" if args.deterministic_only else \
        f"deterministic + wall (tolerance {args.wall_tolerance:g})"
    verdict = "FAIL" if _failures else "OK"
    print(f"perf_diff: {verdict}: {compared} bench(es) compared "
          f"[{mode}], {_failures} failure(s), {_warnings} warning(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
