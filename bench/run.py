"""The lrhive benchmark.

    python3 bench/run.py --workload sweep-products --seed 1 --seconds 40 --trace 0

With `--trace 0` it runs cold `lrhive` processes one at a time in a closed
loop (one client, no overlap) and reports the end-to-end metrics; with
`--trace 1` it runs the same input in this process under the tracer of
`bench/tracing.py` and reports the per-layer metrics.  Metric names, units and
the workloads are those of `BENCHMARK.json`.  Human-readable lines come first;
the last line of stdout is one JSON object for machines.  Every run also
writes its samples, the host record and (traced) the spans under `.bench_out/`.

Run it from a checkout with `src/lrhive/`; it builds nothing, because the
children import the package from `src/`.  It exits 2 without a result when the
program is missing.  A run that measures wrong output still prints its result,
with `"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cold import run_cold  # noqa: E402
from tracing import run_traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# Kept aside for confirming a claimed gain; not used while tuning a change.
HELD_OUT_SEED = 7
# A run must exit within 180 s; no child is started after this many seconds.
RUN_BUDGET_S = 150


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def host_record():
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        model = ""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "loadavg": list(os.getloadavg()),
        "time": time.time(),
    }


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it, and the count.

    The percentile is left out when it would not lie above the median.
    """
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    rank = n - 10  # nearest rank: values[rank - 1] has n - rank = 10 samples beyond it
    if 2 * rank > n:
        out["tail"] = {"p": math.floor(100 * rank / n), "value": values[rank - 1]}
    return out


def cold_metrics(workload, setup, runs):
    per_sample = {
        "wall_s": [s.wall_s for s in runs],
        "cpu_s": [s.cpu_s for s in runs],
        "items_per_s": [workload.items / s.wall_s for s in runs],
        "peak_rss_mb": [s.peak_rss_mb for s in runs],
        "setup_s": [s.wall_s for s in setup],
    }
    return {name: summarize(values) for name, values in per_sample.items() if values}


def print_cold(summaries, units, attempted, failed):
    for name, s in summaries.items():
        tail = s.get("tail")
        tail_text = f"p{tail['p']} {tail['value']:.4f}" if tail else "no percentile above the median has 10 samples beyond it"
        print(f"{name:<12} median {s['median']:.4f} {units.get(name, '')}  {tail_text}  n={s['n']}")
    print(f"{'failed_frac':<12} {failed}/{attempted} = {failed / attempted if attempted else 0:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark lrhive end to end (--trace 0) or per layer (--trace 1).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lrhive" / "cli.py").is_file():
        print(f"error: no lrhive sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = {"start": host_record()}
    shown = " ".join(workload.argv("<seed>"))
    print(f"workload {args.workload}  seed {args.seed}  lrhive {shown}")

    if args.trace:
        wanted = bench["per_layer"]
        layers, attempted, failed = run_traced(
            ROOT, workload, args.seed, seconds, deadline, spans_path=stem.with_suffix(".spans.tsv.gz")
        )
        for name in sorted(layers):
            print(f"{name:<26} {layers[name]:.6g}")
        record = {"layers": layers}
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        wanted = bench["end_to_end"]
        setup, runs, samples = run_cold(ROOT, workload, args.seed, seconds, deadline)
        attempted = len(samples)
        failed = sum(not s.ok for s in samples)
        for s in samples:
            if not s.ok:
                print(f"failed: lrhive {' '.join(s.argv)}: {s.detail}")
        summaries = cold_metrics(workload, setup, runs)
        print_cold(summaries, {m["name"]: m["unit"] for m in wanted}, attempted, failed)
        record = {"summaries": summaries, "samples": [s.__dict__ for s in samples]}
        metrics = {
            m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
            for m in wanted
            if m["name"] in summaries
        }
    host["end"] = host_record()
    print(
        f"host: python {host['start']['python']}, nproc {host['start']['nproc']}, {host['start']['cpu_model']}; "
        f"loadavg {host['start']['loadavg']} -> {host['end']['loadavg']}"
    )
    correct = failed == 0 and len(metrics) == len(wanted)
    with open(stem.with_suffix(".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": seconds, "host": host, **record}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
