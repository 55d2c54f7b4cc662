"""The tableau rule: semistandard skew fillings whose reverse word is lattice.

This is the classical counting rule, kept deliberately independent of the
hive engine so the two can be played against each other.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .partitions import contains
from .skew import SkewShape


class LRTableau(namedtuple("LRTableau", "shape entries")):
    """A filling of a skew shape; entries keyed by 1-indexed (row, column)."""

    __slots__ = ()

    def __new__(cls, shape, entries):
        return super().__new__(cls, shape, dict(entries))

    @classmethod
    def _make(cls, iterable):  # so that _replace makes entries a dict too
        return cls(*iterable)

    def reverse_reading_word(self):
        """Entries read right-to-left along each row, rows top to bottom."""
        return [self.entries[cell] for cell in _reverse_reading_cells(self.shape.outer, self.shape.inner)]

    def __hash__(self):  # entries is a dict, which does not hash
        return hash((self.shape, tuple(sorted(self.entries.items()))))


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
    most len(cap), or len(lam) if cap is None (an expansion); content[v],
    the number of v's, stays at most cap[v - 1], and the word stays lattice,
    with content[0] a sentinel (cap[0], or |lam|) above any content[1] that
    may still grow.  After row r, fillings that agree on their content, on
    row r's entries above row r + 1 and, with keep, on their word merge,
    their numbers summed; with keep the words come out in lex order.
    """
    top = lam.length if cap is None else len(cap)
    frontier = {((cap[0] if cap else lam.weight,) + (0,) * top, (), ()): 1}
    for width, start, below in zip(lam.parts, mu.padded(lam.length), lam.parts[1:] + (0,)):
        reached, n, cut = {}, width - start, width - below
        get = reached.get
        for (content, carried, word), mult in frontier.items():
            counts = list(content)
            floor = carried + (0,) * (n - len(carried))  # entries above, 0 under mu
            row, i = list(floor), 0
            while i >= 0:
                if i == n:
                    key = (tuple(counts), tuple(row[cut:]), word + tuple(row) if keep else ())
                    reached[key] = get(key, 0) + mult
                else:
                    v, hi = row[i] + 1, row[i - 1] if i else top
                    if cap is None:
                        while v <= hi and counts[v - 1] <= counts[v]:
                            v += 1
                    else:
                        while v <= hi and (counts[v] >= cap[v - 1] or counts[v - 1] <= counts[v]):
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


def lr_expansion_states(lam, mu):
    """The final states of lam/mu's fill, keyed by content, and the function giving each one's term."""
    return _by_rows(lam, mu, None, False), _content_parts


def _content_parts(key):
    nu = key[0][1:]  # weakly decreasing, as the word is lattice
    return nu[:len(nu) - nu.count(0)]
