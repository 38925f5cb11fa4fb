#!/usr/bin/env python3
"""Build and run the Vitis benchmark, check its outputs, print its metrics.

A full pass builds the driver, then runs each workload untraced (--repeat
times) and once traced, each run in its own process:

    python3 benchmark/run.py [--seed 42] [--repeat N] [--workloads a,b]
                             [--smoke]

One run of one workload, whose last line of stdout is a JSON result with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every metric is printed as `workload metric value unit (n=samples)`. JSON
results and traces go to build-benchmark/results/. Any failed check exits
with a nonzero code. See benchmark/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-benchmark"
RESULTS_DIR = BUILD_DIR / "results"
sys.path.insert(0, str(BENCH_DIR))
import stats  # noqa: E402

WORKLOADS = ("uniform-3k", "skewed-observed", "twitter-publish", "churn-storm")

# Highest delivery miss ratio each workload may show at full size: a few
# times the largest value of a ten-seed sweep (seeds 1-10 and 42), so only a
# real loss of deliveries trips it.
MISS_CEILING = {
    "uniform-3k": 1e-4,
    "skewed-observed": 1e-4,
    "twitter-publish": 1e-3,
    "churn-storm": 6e-3,
}
# Workloads measured on a converged overlay: minimum end-of-run ring
# consistency at full size.
CONVERGED = {"uniform-3k": 0.94, "skewed-observed": 0.94}
# Workloads on which the pair memo must be used (it must stay unused on the
# others), and the one with the flight recorder on.
MEMO_ENGAGED = {"skewed-observed", "churn-storm"}
OBSERVED = {"skewed-observed"}
# Tail percentiles of the end-to-end timings.
TAILS = {"maint_cycle_ms_p75": 75, "publish_us_p95": 95}

DRIVER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_config():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build the driver; returns its path."""
    configured = (BUILD_DIR / "CMakeCache.txt").exists() and any(
        (BUILD_DIR / name).exists() for name in ("Makefile", "build.ninja"))
    steps = [] if configured else [[
        "cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
        "-DCMAKE_BUILD_TYPE=Release"]]
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "vitis_benchmark", "-j", "2"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}\n"
                             f"{proc.stdout[-4000:]}")
    return BUILD_DIR / "vitis_benchmark"


def run_driver(binary, workload, seed, smoke=False, min_seconds=0.0,
               trace_path=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--min-seconds", repr(float(min_seconds))]
    if smoke:
        cmd.append("--smoke")
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    # The benchmark measures the default configuration: drop the switches
    # that would change it.
    env = {k: v for k, v in os.environ.items()
           if k != "VITIS_UTILITY_CACHE" and not k.startswith("REPRO_")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: driver exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def value(result, name):
    return result["metrics"][name]["value"]


def check(result, smoke):
    """Output checks on one driver result; returns the problems found."""
    workload = result["workload"]
    problems = []
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} "
                        "operations failed their output check")
    if (workload in MEMO_ENGAGED) != (value(result, "core.memo.lookups") > 0):
        problems.append("pair memo use does not match the workload")
    if (workload in OBSERVED) != (value(result, "analysis.observe.calls") > 0):
        problems.append("flight recorder use does not match the workload")
    if smoke:
        return problems
    for name, pct in TAILS.items():
        count = result["metrics"][name]["samples"]
        if not stats.tail_ok(count, pct):
            problems.append(f"{name}: only {count} samples")
    miss = value(result, "delivery_miss_ratio")
    if miss > MISS_CEILING[workload]:
        problems.append(f"delivery_miss_ratio {miss} above ceiling "
                        f"{MISS_CEILING[workload]}")
    ring = value(result, "analysis.ring_consistency")
    if ring < CONVERGED.get(workload, 0.0):
        problems.append(f"ring consistency {ring} below "
                        f"{CONVERGED[workload]}: overlay not converged")
    return problems


def check_digests(binary, results):
    """Runs of one (workload, seed, size) by one driver build must agree on
    their digest, traced or not. Digests are remembered across invocations
    in results/digests.json; a rebuilt driver starts a fresh record."""
    path = RESULTS_DIR / "digests.json"
    build_id = str(binary.stat().st_mtime_ns)
    try:
        with open(path, encoding="utf-8") as f:
            registry = json.load(f)
    except (OSError, ValueError):
        registry = {}
    if registry.get("build") != build_id:
        registry = {"build": build_id, "digests": {}}
    problems = []
    for r in results:
        size = "smoke" if r["smoke"] else "full"
        key = f"{r['workload']}/{r['seed']}/{size}"
        known = registry["digests"].setdefault(key, r["digest"])
        if known != r["digest"]:
            problems.append(f"digest {r['digest']} differs from {known} of an "
                            f"earlier run of seed {r['seed']}")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(registry, f, indent=1)
    return problems


def select(specs, result):
    """The metrics named in BENCHMARK.json, with their configured units."""
    out = {}
    for spec in specs:
        name = spec["name"]
        metric = result["metrics"].get(name)
        if metric is None:
            raise BenchError(f"driver reported no metric {name}")
        if metric["unit"] != spec["unit"]:
            raise BenchError(f"{name}: unit {metric['unit']} is not "
                             f"{spec['unit']}")
        out[name] = {"value": metric["value"], "unit": metric["unit"],
                     "samples": metric["samples"]}
    return out


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']!r} {m['unit']} "
              f"(n={m['samples']})")


def single_run(args, binary, config):
    workload = args.workload
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = (RESULTS_DIR / f"{workload}.trace.jsonl" if args.trace
                  else None)
    run = run_driver(binary, workload, args.seed, args.smoke,
                     min_seconds=args.seconds, trace_path=trace_path)
    problems = check(run, args.smoke) + check_digests(binary, [run])
    metrics = select(config["per_layer" if args.trace else "end_to_end"], run)
    print_metrics(workload, metrics)
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }
    with open(RESULTS_DIR / f"{workload}.json", "w", encoding="utf-8") as f:
        json.dump({"result": result, "run": run, "problems": problems}, f,
                  indent=1)
    for problem in problems:
        log(f"{workload}: check failed: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


def git_describe():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty"], capture_output=True, text=True,
                              check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def full_pass(args, binary, config):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        raise BenchError(f"unknown workloads: {', '.join(unknown)}")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    summary = {"git_describe": git_describe(), "seed": args.seed,
               "repeat": args.repeat, "smoke": args.smoke, "workloads": {}}
    failed_checks = 0
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            log(f"{workload}: untraced run {i + 1}/{args.repeat}")
            runs.append(run_driver(binary, workload, args.seed, args.smoke))
        log(f"{workload}: traced run")
        traced = run_driver(binary, workload, args.seed, args.smoke,
                            trace_path=RESULTS_DIR / f"{workload}.trace.jsonl")
        # The seed must reach the generators: a neighbouring seed gives a
        # different digest (checked at smoke size, which is cheap).
        here = run_driver(binary, workload, args.seed, smoke=True)
        there = run_driver(binary, workload, args.seed + 1, smoke=True)
        problems = check_digests(binary, runs + [traced, here, there])
        for r in runs + [traced]:
            problems += check(r, args.smoke)
        if here["digest"] == there["digest"]:
            problems.append(f"seeds {args.seed} and {args.seed + 1} give the "
                            "same digest")

        end_to_end = {}
        for spec in config["end_to_end"]:
            name = spec["name"]
            values = [value(r, name) for r in runs]
            q1, med, q3 = stats.quartiles(values)
            end_to_end[name] = {
                "value": med, "q1": q1, "q3": q3, "values": values,
                "unit": spec["unit"],
                "samples": runs[0]["metrics"][name]["samples"]}
        per_layer = select(config["per_layer"], traced)

        print(f"== {workload} (seed {args.seed}, {len(runs)} untraced runs, "
              f"digest {runs[0]['digest']}, simd {runs[0]['simd']}, "
              f"run_jobs {runs[0]['run_jobs']})")
        for name, m in end_to_end.items():
            quart = (f" [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
                     if len(runs) > 1 else "")
            print(f"{workload} {name} {m['value']!r} {m['unit']} "
                  f"(n={m['samples']}){quart}")
        print_metrics(workload, per_layer)
        for problem in problems:
            print(f"{workload} CHECK FAILED: {problem}")
        failed_checks += len(problems)
        summary["workloads"][workload] = {
            "digest": runs[0]["digest"], "simd": runs[0]["simd"],
            "run_jobs": runs[0]["run_jobs"], "end_to_end": end_to_end,
            "per_layer": per_layer, "problems": problems}
    path = RESULTS_DIR / ("summary-smoke.json" if args.smoke
                          else "summary.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    log(f"results written to {path}")
    print("all checks passed" if not failed_checks
          else f"{failed_checks} checks failed")
    return 0 if not failed_checks else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload once and print a JSON result")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="minimum measured time per run (single run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single run: report per-layer metrics from a "
                             "traced run")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload in a full pass")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload at about 1/10 size (harness "
                             "check only; never gated)")
    args = parser.parse_args()
    if args.seed < 0 or args.repeat < 1 or args.seconds < 0:
        parser.error("--seed, --repeat and --seconds must be non-negative "
                     "(--repeat at least 1)")
    try:
        config = load_config()
        binary = build()
        if args.workload:
            return single_run(args, binary, config)
        return full_pass(args, binary, config)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"benchmark failed: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
