"""The tableau rule: semistandard skew fillings whose reverse word is lattice.

This is the classical counting rule, kept deliberately independent of the
hive engine so the two can be played against each other.
"""

from __future__ import annotations

from collections import Counter

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
        return [self.entries[cell] for cell in _reverse_reading_cells(self.shape.outer, self.shape.inner)]

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
    content = Counter(t.entries.values())
    return content == dict(enumerate(nu.parts, start=1)) and is_lattice_word(t.reverse_reading_word())


def _reverse_reading_cells(lam, mu):
    """The cells of lam/mu in reverse reading order: rows top to bottom, each right to left."""
    ip = mu.padded(lam.length)
    return [(r, c) for r, w in enumerate(lam.parts, start=1) for c in range(w, ip[r - 1], -1)]


def _by_rows(lam, mu, cap, keep):
    """Fill lam/mu in reverse reading order; return {(content, (), word): fillings}.

    Rows go top to bottom, each filled right to left from an explicit stack.
    Entries weakly decrease along a row, exceed the entry above and are at
    most len(cap); content[v], the number of v's, stays at most cap[v - 1],
    and the word stays lattice.  After row r, fillings that agree on their
    content, on row r's entries above row r + 1 and, with keep, on their word
    merge, their numbers summed; with keep the words come out in lex order.
    """
    top = len(cap)
    frontier = {((0,) * (top + 1), (), ()): 1}
    for width, start, below in zip(lam.parts, mu.padded(lam.length), lam.parts[1:] + (0,)):
        reached = {}
        for (content, carried, word), mult in frontier.items():
            counts = list(content)
            floor = carried + (0,) * (width - start - len(carried))  # entries above, 0 under mu
            row, i = list(floor), 0
            while i >= 0:
                if i == len(row):
                    key = (tuple(counts), tuple(row[width - below:]), word + tuple(row) if keep else ())
                    reached[key] = reached.get(key, 0) + mult
                else:
                    v, hi = row[i] + 1, row[i - 1] if i else top
                    while v <= hi and (counts[v] >= cap[v - 1] or v > 1 and counts[v - 1] <= counts[v]):
                        v += 1
                    if v <= hi:
                        row[i] = v
                        counts[v] += 1
                        i += 1
                        continue
                    row[i] = floor[i]
                i -= 1
                if i >= 0:
                    counts[row[i]] -= 1
        frontier = reached
    return frontier


def enumerate_lr_tableaux(lam, mu, nu):
    """All lattice semistandard fillings of lam/mu with content nu, in lex order of their word."""
    if not contains(mu, lam) or lam.weight - mu.weight != nu.weight:
        return
    shape = SkewShape(lam, mu)
    cells = _reverse_reading_cells(lam, mu)
    for _, _, word in _by_rows(lam, mu, nu.parts, True):
        yield LRTableau(shape, zip(cells, word))


def lr_tableau_count(lam, mu, nu):
    """Number of lattice semistandard fillings of lam/mu with content nu."""
    if not contains(mu, lam) or lam.weight - mu.weight != nu.weight:
        return 0
    return sum(_by_rows(lam, mu, nu.parts, False).values())


def lr_expansion(lam, mu):
    """{nu: number of LR fillings of lam/mu with content nu}, in one walk; mu inside lam."""
    cap = (lam.weight,) * lam.length
    return {Partition(content[1:]): n for (content, _, _), n in _by_rows(lam, mu, cap, False).items()}
