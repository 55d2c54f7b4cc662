"""The tableau rule: semistandard skew fillings whose reverse word is lattice.

This is the classical counting rule, kept deliberately independent of the
hive engine so the two can be played against each other.
"""

from __future__ import annotations

from .partitions import Partition, contains
from .skew import SkewShape


class LRTableau:
    """A filling of a skew shape; entries keyed by 1-indexed (row, column)."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        self.shape = shape
        self.entries = dict(entries)

    def reverse_reading_word(self):
        """Entries read right-to-left along each row, rows top to bottom."""
        word = []
        ip = self.shape.inner.padded(self.shape.outer.length)
        for r, w in enumerate(self.shape.outer.parts, start=1):
            for c in range(w, ip[r - 1], -1):
                word.append(self.entries[(r, c)])
        return word

    def content(self):
        counts = {}
        for v in self.entries.values():
            counts[v] = counts.get(v, 0) + 1
        return Partition(counts.get(i, 0) for i in range(1, max(counts, default=0) + 1))

    def __eq__(self, other):
        if not isinstance(other, LRTableau):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"LRTableau({self.shape!r}, {self.entries!r})"


def is_lattice_word(word):
    """Every prefix has at least as many i's as (i+1)'s, for all i."""
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def is_valid_lr_tableau(t, nu):
    """Full re-validation: semistandard, content equal to nu, lattice word."""
    shape = t.shape
    cells = set(shape.cells())
    if set(t.entries) != cells:
        return False
    for (r, c) in cells:
        v = t.entries[(r, c)]
        if v < 1:
            return False
        if (r, c + 1) in cells and not v <= t.entries[(r, c + 1)]:
            return False
        if (r + 1, c) in cells and not v < t.entries[(r + 1, c)]:
            return False
    counts = {}
    for v in t.entries.values():
        counts[v] = counts.get(v, 0) + 1
    if counts != {i: v for i, v in enumerate(nu.parts, start=1)}:
        return False
    return is_lattice_word(t.reverse_reading_word())


def enumerate_lr_tableaux(lam, mu, nu, *, prune_lattice=True):
    """All lattice semistandard fillings of lam/mu with content nu.

    Cells are filled in reverse reading order so the lattice condition can be
    enforced one prefix at a time; with prune_lattice=False the word is only
    checked at complete fillings (same result set, useful as a cross-check).
    Deterministic order: lexicographic in the fill sequence.
    """
    if not contains(mu, lam):
        return
    if lam.weight - mu.weight != nu.weight:
        return
    shape = SkewShape(lam, mu)
    ip = mu.padded(lam.length)
    order = [
        (r, c)
        for r, w in enumerate(lam.parts, start=1)
        for c in range(w, ip[r - 1], -1)
    ]
    if not order:
        yield LRTableau(shape, {})
        return
    k = nu.length
    if k == 0:
        return
    nup = nu.parts
    grid = {}
    counts = [0] * (k + 1)
    total = len(order)

    def fill(idx):
        if idx == total:
            if prune_lattice or is_lattice_word([grid[cell] for cell in order]):
                yield LRTableau(shape, grid)
            return
        r, c = order[idx]
        hi = grid.get((r, c + 1), k)
        lo = grid.get((r - 1, c), 0) + 1
        for v in range(lo, hi + 1):
            if counts[v] >= nup[v - 1]:
                continue
            if prune_lattice and v > 1 and counts[v] >= counts[v - 1]:
                continue
            grid[(r, c)] = v
            counts[v] += 1
            yield from fill(idx + 1)
            counts[v] -= 1
            del grid[(r, c)]

    yield from fill(0)


def lr_tableau_count(lam, mu, nu):
    """Number of lattice semistandard fillings of lam/mu with content nu."""
    return sum(1 for _ in enumerate_lr_tableaux(lam, mu, nu))
