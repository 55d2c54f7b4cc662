"""Traced in-process runs: self time and counts per lrhive module.

The program is not changed.  For the run, every public function of every
`lrhive` module is replaced by a timing wrapper, both where it is defined and
under each name another module imported it as (`from .hives import
count_lr_hives` binds a name the defining module cannot reach).  The public
methods of `SkewShape` are wrapped on the class.  Methods of other classes
(`Partition`, `Expansion`, ...) count toward the module that calls them.

A call opens a span only when it crosses from one module into another; a call
inside the module it is defined in runs unwrapped.  A generator is timed per
`next()`, each resumption a span of its own.  Spans (name, start, end, parent)
are kept in flat arrays and written out after the run.  A module's self time
is its spans' durations minus the time their child spans cover, so the self
times of all modules add up to the root span, `cli.main`.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import io
import os
import pkgutil
import random
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

CLASS_SPANS = {"skew": ("SkewShape",)}
ENGINE_LAYERS = ("hives", "tableaux")


class Tracer:
    """Spans in flat arrays, plus the stacks of open spans and their modules.

    The arrays are cleared in place, so wrappers may hold on to them.
    """

    def __init__(self):
        self.labels = []
        self.label_layer = []
        self.label_is_call = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.layers = [None]
        self.counts = Counter()

    def reset(self):
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        del self.stack[1:]
        del self.layers[1:]
        self.counts.clear()

    def label_id(self, label, layer, is_call):
        self.labels.append(label)
        self.label_layer.append(layer)
        self.label_is_call.append(is_call)
        return len(self.labels) - 1

    def layer_totals(self):
        """Self seconds and calls per layer, and the duration of the root spans."""
        n = len(self.start)
        covered = [0.0] * n
        root = 0.0
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                root += d
            else:
                covered[p] += d
        self_s, calls = Counter(), Counter()
        for i in range(n):
            label = self.name[i]
            layer = self.label_layer[label]
            self_s[layer] += self.end[i] - self.start[i] - covered[i]
            calls[layer] += self.label_is_call[label]
        return self_s, calls, root

    def write(self, path):
        """Spans as tab-separated `name start end parent`, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as f:
            f.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.labels[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


def _wrap(tracer, fn, layer, label):
    """`fn` behind a span; the bookkeeping is inlined because it runs per call."""
    label_id = tracer.label_id(label, layer, True)
    resume_id = tracer.label_id(label + ".next", layer, False)
    names, parents, starts, ends = tracer.name, tracer.parent, tracer.start, tracer.end
    stack, layers, counts = tracer.stack, tracer.layers, tracer.counts
    clock = time.perf_counter
    yields = label + ".yields"
    cache_info = getattr(fn, "cache_info", None)
    is_gen = inspect.isgeneratorfunction(inspect.unwrap(fn))
    counts_results = layer in ENGINE_LAYERS

    class TracedIterator:
        """The generator seen from another module: one span per `next()`."""

        __slots__ = ("gen",)

        def __init__(self, gen):
            self.gen = gen

        def __iter__(self):
            return self

        def __next__(self):
            if layers[-1] == layer:
                return next(self.gen)
            i = len(starts)
            names.append(resume_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            layers.append(layer)
            starts.append(clock())
            try:
                value = next(self.gen)
            finally:
                ends[i] = clock()
                stack.pop()
                layers.pop()
            counts[yields] += 1
            return value

    def traced(*args, **kwargs):
        caller = layers[-1]
        if caller == layer:
            return fn(*args, **kwargs)
        hits = cache_info().hits if counts_results and cache_info else 0
        i = len(starts)
        names.append(label_id)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(i)
        layers.append(layer)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()
            layers.pop()
        if is_gen:
            return TracedIterator(result)
        if counts_results and type(result) is int:
            counts[layer + ".results"] += 1
            counts[layer + ".nonzero"] += result > 0
            if not (cache_info and cache_info().hits != hits):
                counts[layer + ".counted"] += result
            if caller == "expansions":
                counts["expansions.engine_calls"] += 1
                counts["expansions.terms"] += result > 0
        return result

    return traced


def load_modules(root):
    """Import every `lrhive` module from the checkout's `src/`, by short name."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("lrhive")
    return {
        info.name: importlib.import_module(f"lrhive.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def lru_caches(modules):
    """Every `functools.lru_cache` defined in the modules, as {"module.name": cache}."""
    return {
        f"{short}.{name}": obj
        for short, module in modules.items()
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__
    }


class patched:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self.undo = []

    def _set(self, owner, name, value):
        self.undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        wrappers = {}
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if name.startswith("_") or not home.startswith("lrhive."):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if id(obj) not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[id(obj)] = _wrap(self.tracer, obj, layer, f"{layer}.{obj.__name__}")
                self._set(module, name, wrappers[id(obj)])
        for layer, class_names in CLASS_SPANS.items():
            for class_name in class_names:
                cls = getattr(self.modules[layer], class_name)
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_")):
                        self._set(cls, name, _wrap(self.tracer, obj, layer, f"{layer}.{class_name}.{name}"))
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        self.undo.clear()


def run_main(cli, argv, expected):
    """One in-process `lrhive` invocation; True when it exits 0 with the expected stdout."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code == 0 and out.getvalue().encode() == expected


def _cache_stat(caches, key, field):
    cache = caches.get(key)
    return getattr(cache.cache_info(), field) if cache else 0


def layer_metrics(tracer, caches, workload):
    """The per-layer metrics of one traced repetition."""
    self_s, calls, total = tracer.layer_totals()
    c = tracer.counts
    m = {"trace.total_s": total, "trace.spans": len(tracer.start)}
    for layer in set(self_s) | {"hives", "tableaux", "partitions", "expansions", "skew", "classify", "cli"}:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    for layer, counted_name, per_item in (
        ("hives", "hives_counted", "us_per_hive"),
        ("tableaux", "tableaux_counted", "us_per_tableau"),
    ):
        counted = c[layer + ".counted"]
        m[f"{layer}.{counted_name}"] = counted
        m[f"{layer}.{per_item}"] = ratio(m[f"{layer}.self_s"], counted, 1e6)
        m[f"{layer}.nonzero_ratio"] = ratio(c[layer + ".nonzero"], c[layer + ".results"])
    m["hives.us_per_call"] = ratio(m["hives.self_s"], m["hives.calls"], 1e6)
    m["hives.cache_hits"] = _cache_stat(caches, "hives.count_lr_hives", "hits")
    m["hives.cache_size"] = _cache_stat(caches, "hives.count_lr_hives", "currsize")
    m["hives.plans_built"] = _cache_stat(caches, "hives._plan", "misses")
    m["tableaux.cache_hits"] = _cache_stat(caches, "tableaux.lr_tableau_count", "hits")
    m["tableaux.cache_size"] = _cache_stat(caches, "tableaux.lr_tableau_count", "currsize")
    candidates = c["partitions.bounded_partitions.yields"]
    m["partitions.candidates"] = candidates
    m["expansions.engine_calls"] = c["expansions.engine_calls"]
    m["expansions.terms"] = c["expansions.terms"]
    m["expansions.nonzero_ratio"] = ratio(c["expansions.terms"], c["expansions.engine_calls"])
    m["expansions.contain_ratio"] = ratio(c["expansions.engine_calls"], candidates)
    m["expansions.cache_hits"] = _cache_stat(caches, "expansions.product_expansion", "hits") + _cache_stat(
        caches, "expansions._skew_expansion", "hits"
    )
    m["cli.instances"] = workload.instances
    return m


def run_traced(root, workload, seed, seconds, deadline, spans_path=None):
    """Untraced repetitions for about half of `seconds`, then traced ones for the rest.

    Every repetition runs the workload's first cold-run input in this process
    with every `lru_cache` cleared first.  Returns (the per-layer metrics of
    the traced repetition with the median total, repetitions attempted,
    failed).
    """
    modules = load_modules(root)
    cli = modules["cli"]
    caches = lru_caches(modules)
    argv = workload.argv(random.Random(seed).randrange(2**31))
    expected = workload.expected_stdout()
    os.environ.pop("HIVE_LR_MAX_WEIGHT", None)
    if workload.max_weight is not None:
        os.environ["HIVE_LR_MAX_WEIGHT"] = workload.max_weight

    def cold_caches():
        for cache in caches.values():
            cache.cache_clear()

    def more(durations, until):
        """Another repetition while the last one's duration still fits before `until`."""
        return not durations or time.monotonic() + durations[-1] < min(deadline, start + until)

    attempted = failed = 0
    plain_wall, plain_offcpu = [], []
    start = time.monotonic()
    while more(plain_wall, seconds / 2):
        cold_caches()
        w0, c0 = time.perf_counter(), time.process_time()
        ok = run_main(cli, argv, expected)
        wall = time.perf_counter() - w0
        plain_wall.append(wall)
        plain_offcpu.append(wall - (time.process_time() - c0))
        attempted += 1
        failed += not ok

    tracer = Tracer()
    reps = []
    with patched(tracer, modules):
        while more([r["trace.total_s"] for r in reps], seconds):
            tracer.reset()
            cold_caches()
            ok = run_main(cli, argv, expected)
            reps.append(layer_metrics(tracer, caches, workload))
            attempted += 1
            failed += not ok
    if spans_path is not None:
        tracer.write(spans_path)

    reps.sort(key=lambda r: r["trace.total_s"])
    metrics = dict(reps[(len(reps) - 1) // 2])
    metrics["trace.untraced_s"] = statistics.median(plain_wall)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - metrics["trace.untraced_s"]
    metrics["cli.offcpu_s"] = statistics.median(plain_offcpu)
    return metrics, attempted, failed
