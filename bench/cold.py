"""Cold lrhive processes, one at a time, in a closed loop.

Each child is a fresh interpreter running `python -m lrhive.cli` on the
checkout's `src/`.  Its wall time is taken around spawn and reap; its CPU time
and peak resident memory come from the rusage that `wait4` returns for it
alone.  No wrapper or tracer is loaded into the child.
"""

from __future__ import annotations

import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

CHILD_TIMEOUT_S = 60
SETUP_PER_PROCESS = 2
MIN_SAMPLES = 3
HELP_PREFIX = b"usage: lrhive"


@dataclass(frozen=True)
class Sample:
    argv: tuple
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    detail: str


def child_env(root, max_weight):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("HIVE_LR_MAX_WEIGHT", None)
    if max_weight is not None:
        env["HIVE_LR_MAX_WEIGHT"] = max_weight
    return env


def launch(root, argv, env, check, timeout):
    """Run one cold `lrhive` process to completion and measure it.

    `check(stdout)` decides whether the output is right.  A child that is
    still running after `timeout` seconds is killed and counts as failed.
    Output is read after the child exits, so it must fit in the pipe buffer;
    every command here prints a few lines.
    """
    cmd = [sys.executable, "-m", "lrhive.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    if not exited:
        ok, detail = False, f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        ok, detail = False, f"exit {proc.returncode}: {err.decode(errors='replace')[-300:]}"
    elif not check(out):
        ok, detail = False, f"wrong output: {out[:300]!r}"
    else:
        ok, detail = True, ""
    return Sample(tuple(argv), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, ok, detail)


def run_cold(root, workload, seed, seconds, deadline):
    """Measure the workload in a closed loop for about `seconds`, with set-up launches between.

    Returns (set-up samples, workload samples, every sample taken).  Set-up is
    a launch that only prints `--help`; spreading those launches over the run
    keeps a burst of host noise from hitting all of them.  The loop starts
    another round only while the time it expects a round to take (medians so
    far) still ends within `seconds`, and takes at least MIN_SAMPLES; it stops
    at the first failure, which already makes the run incorrect.
    """
    samples = []
    expected = workload.expected_stdout()

    def attempt(argv, max_weight, check):
        """One child, or None once the deadline has passed; every child is kept in `samples`."""
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        sample = launch(root, argv, child_env(root, max_weight), check, min(CHILD_TIMEOUT_S, left))
        samples.append(sample)
        return sample

    def is_help(out):
        return out.startswith(HELP_PREFIX)

    def is_expected(out):
        return out == expected

    # The first launch writes the bytecode cache under src/ and is not timed.
    attempt(["--help"], None, is_help)
    if workload.check_argv() is not None:
        attempt(workload.check_argv(), workload.max_weight, is_expected)

    seeds = random.Random(seed)
    setup, runs = [], []
    start = time.monotonic()
    while True:
        for _ in range(SETUP_PER_PROCESS):
            sample = attempt(["--help"], None, is_help)
            if sample is not None:
                setup.append(sample)
        sample = attempt(workload.argv(seeds.randrange(2**31)), workload.max_weight, is_expected)
        if sample is None:
            break
        runs.append(sample)
        if not all(s.ok for s in samples):
            break
        elapsed = time.monotonic() - start
        expect = statistics.median(s.wall_s for s in runs) + SETUP_PER_PROCESS * statistics.median(
            s.wall_s for s in setup
        )
        if len(runs) >= MIN_SAMPLES and elapsed + expect > seconds:
            break
    return setup, runs, samples
