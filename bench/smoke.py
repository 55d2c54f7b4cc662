"""Smoke test of the benchmark itself, at tiny sizes; exits 1 on the first failed check.

    python3 bench/smoke.py

Runs products 2x2, skews 3x3 and the stretched triple at factor 1 through
both the cold and the traced paths, checks their outputs and the trace's
bookkeeping, and checks that `run.py` refuses a directory without the program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cold import run_cold  # noqa: E402
from run import ROOT, spec  # noqa: E402
from tracing import run_traced  # noqa: E402
from workloads import TINY_WORKLOADS  # noqa: E402


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    per_layer = [m["name"] for m in spec()["per_layer"]]
    traced = {}
    for name, workload in TINY_WORKLOADS.items():
        setup, runs, samples = run_cold(ROOT, workload, 1, 0.5, time.monotonic() + 60)
        check(runs and setup and all(s.ok for s in samples), f"{name}: every cold process gives the expected output")
        check(all(s.wall_s > 0 and s.cpu_s > 0 and s.peak_rss_mb > 0 for s in runs), f"{name}: cold samples are nonzero")

        metrics, attempted, failed = run_traced(ROOT, workload, 1, 0, time.monotonic() + 60)
        traced[name] = metrics
        check(attempted == 2 and failed == 0, f"{name}: untraced and traced repetitions give the expected output")
        check(all(k in metrics for k in per_layer), f"{name}: the traced run gives every per-layer metric")
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        check(
            math.isclose(self_sum, metrics["trace.total_s"], rel_tol=1e-9, abs_tol=1e-9),
            f"{name}: per-layer self times sum to the traced total ({self_sum:.6f} s)",
        )

    check(traced["sweep-skews"]["hives.calls"] == 0, "sweep-skews makes no hive call")
    check(traced["sweep-skews"]["tableaux.calls"] > 0, "sweep-skews calls the tableau engine")
    check(traced["sweep-products"]["hives.calls"] > 0, "sweep-products calls the hive engine")
    check(traced["sweep-products"]["partitions.candidates"] > 0, "sweep-products generates candidates")
    check(traced["stretched-coef"]["hives.hives_counted"] == 18, "stretched-coef at factor 1 counts 18 hives")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, *json.loads((bare / "BENCHMARK.json").read_text())["command"][1:]]
    done = subprocess.run(
        [*cmd, "--workload", "sweep-skews", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(), "run.py exits non-zero without a result when the program is missing")


if __name__ == "__main__":
    main()
