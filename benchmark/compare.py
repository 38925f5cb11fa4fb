#!/usr/bin/env python3
"""Compare a change against its parent with the benchmark's pair rule.

    python3 benchmark/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        [--pairs 10] [--seed 1] [--workloads a,b] [--seconds 10]

Each checkout is a tree holding BENCHMARK.json and benchmark/ (a clone of
each commit). For every workload the script runs --pairs (at least 10)
pairs of untraced runs, pair i on seed --seed + i for both sides, with the
side that runs first alternating between pairs. Each side runs its own
checkout's benchmark/run.py. It then reports, per workload and end-to-end
metric, each side's median and quartiles, the change's share of pair wins
(ties count for neither side) and a verdict against the bound in the
parent's BENCHMARK.json:

    improved    wins >= 90% of pairs and the medians differ by more than the
                parent's quartile distance
    unresolved  the parent's own spread exceeds the bound
    regressed   the change's median is worse by more than the bound
    unchanged   otherwise

It also compares the failure share (failed / attempted operations) and,
from one traced run per side, ranks the per-layer self-time deltas so that
every comparison names the layer that moved. Writes
build-benchmark/results/compare.json; exits 1 when any metric regressed or
the change fails more operations than the parent.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR.parent / "build-benchmark" / "results"
sys.path.insert(0, str(BENCH_DIR))
import stats  # noqa: E402

MIN_PAIRS = 10
# Absolute noise floor of set-up time: a bound never asks for less than this.
ABS_FLOOR = {"setup_s": 0.025}
# The first run of a checkout builds it.
RUN_TIMEOUT_S = 1000


def is_self_time(name):
    """Per-layer self times (ms), ranked by their delta between the sides;
    the unattributed cycle time counts as the self time of no layer."""
    return name.endswith(".self_ms") or name == "sim.unattributed_ms"


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def compare_workload(parent_dir, change_dir, workload, args, config):
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent_dir if side == "parent" else change_dir
            print(f"{workload}: pair {i + 1}/{args.pairs} {side}",
                  file=sys.stderr, flush=True)
            sides[side].append(run_one(checkout, workload, seed, args.seconds,
                                       trace=0))

    rows = []
    for spec in config["end_to_end"]:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in sides["parent"]]
        change = [r["metrics"][name]["value"] for r in sides["change"]]
        p_q1, p_med, p_q3 = stats.quartiles(parent)
        c_q1, c_med, c_q3 = stats.quartiles(change)
        wins, losses, ties = stats.pair_wins(parent, change, spec["better"])
        rows.append({
            "metric": name, "unit": spec["unit"], "bound": spec["bound"],
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3,
                       "values": parent},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3,
                       "values": change},
            "wins": wins, "losses": losses, "ties": ties,
            "worse_share": stats.worse_share(p_med, c_med, spec["better"]),
            "verdict": stats.verdict(parent, change, spec["better"],
                                     spec["bound"], ABS_FLOOR.get(name, 0.0)),
        })

    failures = {side: {"attempted": sum(r["attempted"] for r in runs),
                       "failed": sum(r["failed"] for r in runs)}
                for side, runs in sides.items()}

    traced = {side: run_one(parent_dir if side == "parent" else change_dir,
                            workload, args.seed, args.seconds, trace=1)
              for side in ("parent", "change")}
    moves = []
    for name, metric in traced["parent"]["metrics"].items():
        if not is_self_time(name):
            continue
        after = traced["change"]["metrics"].get(name, {}).get("value", 0.0)
        moves.append({"metric": name, "unit": metric["unit"],
                      "parent": metric["value"], "change": after,
                      "delta": after - metric["value"]})
    moves.sort(key=lambda m: abs(m["delta"]), reverse=True)
    return {"rows": rows, "failures": failures, "layer_moves": moves}


def failure_share(counts):
    if not counts["attempted"]:
        return 0.0
    return counts["failed"] / counts["attempted"]


def print_workload(workload, result):
    print(f"== {workload}")
    for row in result["rows"]:
        p, c = row["parent"], row["change"]
        pairs = row["wins"] + row["losses"] + row["ties"]
        print(f"{workload} {row['metric']} parent {p['median']:.6g} "
              f"[{p['q1']:.6g}, {p['q3']:.6g}] change {c['median']:.6g} "
              f"[{c['q1']:.6g}, {c['q3']:.6g}] {row['unit']} "
              f"wins {row['wins']}/{pairs} worse {row['worse_share']:+.2%} "
              f"(bound {row['bound']:.0%}) -> {row['verdict']}")
    f = result["failures"]
    print(f"{workload} failure share parent {failure_share(f['parent']):.3g} "
          f"({f['parent']['failed']}/{f['parent']['attempted']}) change "
          f"{failure_share(f['change']):.3g} "
          f"({f['change']['failed']}/{f['change']['attempted']})")
    moves = result["layer_moves"]
    for move in moves[:5]:
        print(f"{workload} layer {move['metric']} {move['parent']:.6g} -> "
              f"{move['change']:.6g} {move['unit']} ({move['delta']:+.6g})")
    if moves:
        print(f"{workload} the layer that moved most: {moves[0]['metric']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds)")
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"the pair rule needs at least {MIN_PAIRS} pairs")
    with open(args.parent / "BENCHMARK.json", encoding="utf-8") as f:
        config = json.load(f)
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    report = {}
    bad = False
    for workload in workloads:
        result = compare_workload(args.parent.resolve(), args.change.resolve(),
                                  workload, args, config)
        report[workload] = result
        print_workload(workload, result)
        f = result["failures"]
        bad |= any(r["verdict"] == "regressed" for r in result["rows"])
        bad |= failure_share(f["change"]) > failure_share(f["parent"])
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / "compare.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
