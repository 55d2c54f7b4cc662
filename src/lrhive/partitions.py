"""Partitions and their box geometry: conjugates, complements, boundary paths.

A partition is stored canonically as a weakly decreasing tuple of positive
integers; the empty tuple is the zero partition.  Operations that depend on a
fixed number of rows (complements, boundary paths) take the enclosing m x n
box explicitly and pad with zeros internally.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate
from operator import index as _as_int


class Partition:
    """Weakly decreasing positive parts; ``Partition()`` is the zero partition.

    Instances are immutable in use and hashable.
    Trailing zeros are stripped on construction, so equality is equality of
    diagrams.  A slots class, not a named tuple like the other records:
    parts is read on every hot path, and a slot reads in about half the time.
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

    @classmethod
    def _of(cls, parts):
        """Trusted construction from a tuple already weakly decreasing and positive."""
        p = object.__new__(cls)
        p.parts = parts
        return p

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
    m = _as_int(m)
    parts = tuple(m - v for v in reversed(p.padded(n)))
    return Partition._of(parts[:n - parts.count(0)])


class ShapeClass(
    namedtuple(
        "ShapeClass",
        "is_rectangle is_one_line_rectangle is_two_line_rectangle is_fat_hook is_near_rectangle",
    )
):
    """Structure flags used by the multiplicity-free classifications."""

    __slots__ = ()


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


class SegmentSeq(namedtuple("SegmentSeq", "segments starts_vertical")):
    """Straight-segment lengths of a boundary lattice path inside a box."""

    __slots__ = ()


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
    # Rows bottom to top: a rise in the part is a horizontal run, a repeat
    # lengthens the vertical run.  Only the first and last runs can be empty.
    segments, prev = [], 0
    for v in reversed(p.padded(n)):
        if v > prev or not segments:
            segments += (v - prev, 0)
            prev = v
        segments[-1] += 1
    segments.append(m - prev)
    return SegmentSeq(tuple(s for s in segments if s), segments[0] == 0)


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


def _walk_numbering(cap):
    """How many tuples _walk(cap) yields, and a function from k to the k-th of them.

    sums[-i][v] adds up, over last parts u <= v, the tuples from one length-i prefix ending
    in u.  Rows fill from the last part up; the k-th tuple is read off them part by part.
    """
    cap = tuple(cap) + (0,)
    sums = [[0]]
    for i in range(len(cap) - 1, 0, -1):  # row sums[-1] is the one below until the append
        counts = (1 + sums[-1][min(cap[i], v)] for v in range(1, cap[i - 1] + 1))
        sums.append(list(accumulate(counts, initial=0)))

    def item(k):
        prefix = [cap[0]]  # a first entry that bounds nothing, dropped at the end
        while k:  # tuple k > 0 from a prefix is extension k - 1 of it
            row, hi = sums[-len(prefix)], min(cap[len(prefix) - 1], prefix[-1])
            prefix.append(bisect_left(row, row[hi] - k + 1))
            k += row[prefix[-1]] - row[hi] - 1
        return tuple(prefix[1:])

    return 1 + sums[-1][cap[0]], item


def bounded_partitions(weight, outer=None):
    """Partitions of `weight` contained in outer, in decreasing lex order.

    Without an outer bound every partition of `weight` comes out.
    """
    cap = (weight,) * weight if outer is None else outer.parts
    for parts in _walk(cap, weight):
        yield Partition._of(parts)


def partitions_in_box(m, n):
    """All partitions inside the m x n box, by weight then decreasing lex."""
    if m < 0 or n < 0:
        raise ValueError(f"box sides must be non-negative, got {m}x{n}")
    box = Partition([m] * n)
    return [p for w in range(m * n + 1) for p in bounded_partitions(w, box)]


def subpartitions(p):
    """All partitions contained in p, including 0 and p itself."""
    for parts in _walk(p.parts):
        yield Partition._of(parts)
