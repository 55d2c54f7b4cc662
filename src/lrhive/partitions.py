"""Partitions and their box geometry: conjugates, complements, boundary paths.

A partition is stored canonically as a weakly decreasing tuple of positive
integers; the empty tuple is the zero partition.  Operations that depend on a
fixed number of rows (complements, boundary paths) take the enclosing m x n
box explicitly and pad with zeros internally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import index as _as_int


class Partition:
    """Weakly decreasing positive parts; ``Partition()`` is the zero partition.

    Instances are immutable in use and hashable.
    Trailing zeros are stripped on construction, so equality is equality of
    diagrams.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        vals = [_as_int(v) for v in parts]
        for u, w in zip(vals, vals[1:]):
            if u < w:
                raise ValueError(f"parts must be weakly decreasing, got {u} before {w}")
        if vals and vals[-1] < 0:
            raise ValueError("parts must be non-negative")
        while vals and vals[-1] == 0:
            vals.pop()
        self.parts = tuple(vals)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def padded(self, n):
        """Parts as a length-n tuple, padded with zeros (n >= length)."""
        if n < len(self.parts):
            raise ValueError(f"cannot pad length-{len(self.parts)} partition to {n}")
        return self.parts + (0,) * (n - len(self.parts))

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"

    def __str__(self):
        return format_partition(self)


_TOKEN = re.compile(r"(\d+)(?:\^(\d+))?\Z")


class WeightCapError(ValueError):
    """The text names a partition heavier than parse_partition's max_weight."""

    def __init__(self, weight, max_weight):
        super().__init__(f"total weight {weight} exceeds {max_weight}")
        self.weight = weight


def parse_partition(text, max_weight=None):
    """Parse comma/space separated parts, with optional v^k exponent runs.

    "9^2,6^3" parses to (9,9,6,6,6); zeros are accepted anywhere the sequence
    stays weakly decreasing and are stripped from the result.  A zero run
    stands as one zero, which is enough to reject a nonzero part after it.
    With max_weight given, a text whose runs weigh more raises WeightCapError
    before any part is built, so a long run costs no memory.
    """
    text = text.strip()
    if text in ("", "0"):
        return Partition()
    runs = []
    for tok in re.split(r"[,\s]+", text):
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad partition token {tok!r}")
        v = int(m.group(1))
        k = int(m.group(2)) if m.group(2) is not None else 1
        if k < 1:
            raise ValueError(f"exponent must be positive in {tok!r}")
        runs.append((v, k if v else 1))
    weight = sum(v * k for v, k in runs)
    if max_weight is not None and weight > max_weight:
        raise WeightCapError(weight, max_weight)
    return Partition(v for v, k in runs for _ in range(k))


def format_partition(p):
    """Canonical text form: "4,3,2,1", or "0" for the zero partition."""
    if not p.parts:
        return "0"
    return ",".join(str(v) for v in p.parts)


def conjugate(p):
    """Transpose of the diagram: result_j counts the parts of p that exceed j."""
    parts = p.parts
    if not parts:
        return Partition()
    return Partition(sum(1 for v in parts if v > j) for j in range(parts[0]))


def add(p, q):
    """Componentwise sum, padding the shorter partition with zeros."""
    n = max(p.length, q.length)
    return Partition(a + b for a, b in zip(p.padded(n), q.padded(n)))


def union(p, q):
    """Multiset merge of the parts, sorted decreasingly."""
    return Partition(sorted(p.parts + q.parts, reverse=True))


def contains(inner, outer):
    """True iff the diagram of inner sits inside the diagram of outer."""
    if inner.length > outer.length:
        return False
    return all(a <= b for a, b in zip(inner.parts, outer.parts))


def fits_in_box(p, m, n):
    """True iff p is contained in the m x n rectangle."""
    return p.length <= n and (not p.parts or p.parts[0] <= m)


def complement(p, m, n):
    """The m^n-complement: part k is m minus part n+1-k of the padded p."""
    if not fits_in_box(p, m, n):
        raise ValueError(f"{p} does not fit in a {m}x{n} box")
    padded = p.padded(n)
    return Partition(m - padded[n - 1 - k] for k in range(n))


def _runs(values):
    """Maximal runs of equal values, as (value, run length) pairs in order."""
    return [(v, len(list(g))) for v, g in groupby(values)]


@dataclass(frozen=True)
class ShapeClass:
    """Structure flags used by the multiplicity-free classifications."""

    is_rectangle: bool
    is_one_line_rectangle: bool
    is_two_line_rectangle: bool
    is_fat_hook: bool
    is_near_rectangle: bool


def shape_class(p, m, n):
    """Classify p as rectangle / fat hook and their subtypes in the m x n box.

    A rectangle has one run of equal parts and a fat hook two; the zero
    partition carries no flags.  The subtypes are read off p's shortness in
    the box: a rectangle is one-line at shortness 1 and two-line at shortness
    2, and a fat hook is a near-rectangle at shortness 1.  In p's own box
    (first part x length) a^k has the segments a and k, and a^r b^s the
    segments b, s, a-b and r, so there these are the run-length rules.
    """
    runs = len(set(p.parts))  # the parts weakly decrease
    rect, fat = runs == 1, runs == 2
    short = shortness(p, m, n) if rect or fat else 0
    return ShapeClass(rect, rect and short == 1, rect and short == 2, fat, fat and short == 1)


@dataclass(frozen=True)
class SegmentSeq:
    """Straight-segment lengths of a boundary lattice path inside a box."""

    segments: tuple
    starts_vertical: bool


def boundary_segments(p, m, n):
    """Segment lengths of the path tracing p's boundary inside the m x n box.

    The path runs from the southwest to the northeast corner of the box,
    alternating vertical and horizontal runs; zero-length runs are omitted.
    Vertical lengths sum to n and horizontal lengths to m.
    """
    if m < 1 or n < 1:
        raise ValueError("box sides must be positive")
    if not fits_in_box(p, m, n):
        raise ValueError(f"{p} does not fit in a {m}x{n} box")
    runs = _runs(p.padded(n)[::-1])
    segments = []
    starts_vertical = runs[0][0] == 0
    if not starts_vertical:
        segments.append(runs[0][0])
    prev = runs[0][0]
    for idx, (v, k) in enumerate(runs):
        if idx > 0:
            segments.append(v - prev)
            prev = v
        segments.append(k)
    if m - prev > 0:
        segments.append(m - prev)
    return SegmentSeq(tuple(segments), starts_vertical)


def shortness(p, m, n):
    """Minimum straight-segment length of p's boundary path in the m x n box."""
    return min(boundary_segments(p, m, n).segments)


def _walk(cap, weight=None):
    """Parts tuples p with 1 <= p_i <= cap_i, each prefix before its extensions.

    Larger parts come first, so partitions of one weight come out in
    decreasing lex order.  Without a weight every prefix comes out; with one,
    only the partitions of that weight, and a prefix is extended only while
    the rows left can hold the weight left.
    The stack is explicit, so long partitions need no deep recursion.
    """
    rows = len(cap)
    stack = [((), weight or 0)]
    while stack:
        prefix, left = stack.pop()
        i = len(prefix)
        if weight is None or left == 0:
            yield prefix
        if i == rows:
            continue
        hi = min(cap[i], prefix[-1]) if prefix else cap[i]
        lo = 1
        if weight is not None:
            hi = min(hi, left)
            lo = max(lo, -(-left // (rows - i)))  # ceil(left / rows left)
        stack.extend((prefix + (v,), left - v) for v in range(lo, hi + 1))


def bounded_partitions(weight, outer=None):
    """Partitions of `weight` contained in outer, in decreasing lex order.

    Without an outer bound every partition of `weight` comes out.
    """
    cap = (weight,) * weight if outer is None else outer.parts
    for parts in _walk(cap, weight):
        yield Partition(parts)


def partitions_in_box(m, n):
    """All partitions inside the m x n box, by weight then decreasing lex."""
    if m < 0 or n < 0:
        raise ValueError(f"box sides must be non-negative, got {m}x{n}")
    box = Partition([m] * n)
    return [p for w in range(m * n + 1) for p in bounded_partitions(w, box)]


def subpartitions(p):
    """All partitions contained in p, including 0 and p itself."""
    for parts in _walk(p.parts):
        yield Partition(parts)
