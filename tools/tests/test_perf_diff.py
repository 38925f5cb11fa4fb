"""Unit tests for tools/perf_diff.py over two synthetic artifact trees.

    python3 -m unittest discover -s tools/tests
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PERF_DIFF = Path(__file__).resolve().parent.parent / "perf_diff.py"


def artifact(relay_ms, routing_ms, span_ms, wall_ms):
    """A two-point artifact whose wall-clock fields come from the
    arguments (per point) and whose deterministic fields are fixed."""
    point = {
        "params": {"nodes": 100},
        "metrics": {"hit_ratio": 1.0},
        "telemetry": {
            "cycles": 10,
            "messages": 500,
            "phases": {
                "relay": {"calls": 40, "wall_ms": relay_ms},
                "routing": {"calls": 40, "wall_ms": routing_ms},
                "tman": {"calls": 10, "wall_ms": 5.0},
            },
            "parallel": {
                "relay-refresh": {"busy_ms": span_ms, "span_ms": span_ms,
                                  "efficiency": 1.0, "workers": [span_ms]},
            },
        },
    }
    return {
        "schema_version": 7, "bench": "fig_test", "seed": 1,
        "scale": "quick", "points": [point, point],
        "totals": {"points": 2, "wall_ms": wall_ms, "cycles": 20,
                   "messages": 1000},
    }


class PerfDiffTest(unittest.TestCase):
    def run_diff(self, base, cand, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            for side, doc in (("base", base), ("cand", cand)):
                (Path(tmp) / side).mkdir()
                (Path(tmp) / side / "BENCH_fig_test.json").write_text(
                    json.dumps(doc))
            return subprocess.run(
                [sys.executable, str(PERF_DIFF), str(Path(tmp) / "base"),
                 str(Path(tmp) / "cand"), *flags],
                capture_output=True, text=True, check=False)

    def test_wall_mode_ranks_layer_deltas(self):
        base = artifact(relay_ms=100.0, routing_ms=50.0, span_ms=80.0,
                        wall_ms=400.0)
        cand = artifact(relay_ms=40.0, routing_ms=60.0, span_ms=70.0,
                        wall_ms=300.0)
        proc = self.run_diff(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rows = [line.split() for line in proc.stdout.splitlines()
                if line.startswith("  ")]
        # Summed over both points: relay -120, stage span -20,
        # routing +20, tman 0.
        self.assertEqual([" ".join(row[:2]) for row in rows],
                         ["phase relay", "phase routing",
                          "stage relay-refresh", "phase tman"])
        self.assertEqual(rows[0][2:6], ["wall_ms", "200.0", "->", "80.0"])
        self.assertEqual(rows[0][-1], "(-120.0)")
        self.assertEqual(rows[1][-1], "(+20.0)")

    def test_layer_table_is_informational(self):
        # A wall regression well beyond the tolerance still exits 0: the
        # layer table and the wall warning never fail the gate.
        base = artifact(relay_ms=10.0, routing_ms=10.0, span_ms=10.0,
                        wall_ms=100.0)
        cand = artifact(relay_ms=90.0, routing_ms=10.0, span_ms=90.0,
                        wall_ms=900.0)
        proc = self.run_diff(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("phase relay wall_ms", proc.stdout)
        self.assertIn("totals.wall_ms regressed", proc.stderr)

    def test_deterministic_only_prints_no_layer_table(self):
        base = artifact(relay_ms=100.0, routing_ms=50.0, span_ms=80.0,
                        wall_ms=400.0)
        cand = artifact(relay_ms=40.0, routing_ms=60.0, span_ms=70.0,
                        wall_ms=300.0)
        proc = self.run_diff(base, cand, "--deterministic-only")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("layer wall deltas", proc.stdout)


if __name__ == "__main__":
    unittest.main()
