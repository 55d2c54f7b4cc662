"""Skew diagrams and their normal forms: rotation, basic reduction, components."""

from __future__ import annotations

from collections import namedtuple

from .partitions import (
    Partition,
    complement,
    contains,
    format_partition,
    parse_partition,
)


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """An outer/inner partition pair with inner contained in outer.

    The cell set is {(r, c) : 1 <= r <= len(outer), inner_r < c <= outer_r},
    rows and columns 1-indexed.
    """

    __slots__ = ()

    def __new__(cls, outer, inner=None):
        inner = Partition() if inner is None else inner
        if not contains(inner, outer):
            raise ValueError(f"{inner} is not contained in {outer}")
        return super().__new__(cls, outer, inner)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @classmethod
    def _of(cls, outer, inner):
        """Trusted construction from an inner partition already contained in outer."""
        return tuple.__new__(cls, (outer, inner))

    @property
    def size(self):
        return self.outer.weight - self.inner.weight

    def cells(self):
        ip = self.inner.padded(self.outer.length)
        return [
            (r + 1, c)
            for r, w in enumerate(self.outer.parts)
            for c in range(ip[r] + 1, w + 1)
        ]

    def is_row_basic(self):
        """No empty rows: every row of outer keeps at least one cell."""
        ip = self.inner.padded(self.outer.length)
        return all(ip[r] < w for r, w in enumerate(self.outer.parts))

    def is_basic(self):
        """No empty rows and no empty columns (the row rule of _basic_cap)."""
        return contains(self.inner, _basic_cap(self.outer))

    def rotate_pi(self):
        """180-degree rotation inside the len(outer) x outer_1 bounding box."""
        m = self.outer.parts[0] if self.outer else 0
        n = self.outer.length
        return SkewShape(complement(self.inner, m, n), complement(self.outer, m, n))

    def to_basic(self):
        """Delete all empty rows and empty columns; idempotent.

        With inner padded to len(outer) and outer_{n+1} = 0, the columns left
        empty between rows k and k+1 are (outer_{k+1}, inner_k], all at or left
        of column inner_k.  So row r loses
        d_r = sum_{k >= r} max(0, inner_k - outer_{k+1}) columns from both
        sides, and the rows with inner_r = outer_r go.
        """
        op = self.outer.parts
        ip = self.inner.padded(len(op))
        outer, inner, d = [], [], 0
        for a, b, below in reversed(list(zip(op, ip, op[1:] + (0,)))):
            d += max(0, b - below)
            if b < a:
                outer.append(a - d)
                inner.append(b - d)
        return SkewShape(Partition(outer[::-1]), Partition(inner[::-1]))

    def components(self):
        """Edge-connected components, top to bottom, each normalized to basic.

        Cells touching only at a corner belong to different components, so the
        rows split exactly where consecutive row intervals share no column.
        """
        if not self.is_basic():
            raise ValueError("components requires a basic shape; call to_basic() first")
        n = self.outer.length
        if n == 0:
            return []
        op = self.outer.parts
        ip = self.inner.padded(n)
        groups = [[0]]
        for r in range(1, n):
            if ip[r - 1] < op[r]:
                groups[-1].append(r)
            else:
                groups.append([r])
        out = []
        for rows in groups:
            outer = Partition(op[r] for r in rows)
            inner = Partition(ip[r] for r in rows)
            out.append(SkewShape(outer, inner).to_basic())
        return out

    def __str__(self):
        return format_skew_shape(self)


def _basic_cap(lam):
    """Largest mu with lam/mu basic (no empty row or column): mu_r = min(lam_r - 1, lam_{r+1})."""
    below = lam.parts[1:] + (0,)
    parts = tuple(min(a - 1, b) for a, b in zip(lam.parts, below))
    return Partition._of(parts[:len(parts) - parts.count(0)])


def star(theta, phi):
    """The skew shape theta*phi, theta above and to the right of phi.

    Its skew Schur function is s_theta s_phi (Macdonald, Symmetric
    Functions, I.5); either factor may be empty.
    """
    shift = phi.outer.parts[0] if phi.outer else 0
    outer = tuple(t + shift for t in theta.outer.parts) + phi.outer.parts
    inner = tuple(t + shift for t in theta.inner.padded(theta.outer.length)) + phi.inner.parts
    # each factor is a checked shape, so outer holds inner; inner's zeros, if any, are its last
    return SkewShape._of(Partition._of(outer), Partition._of(inner[:len(inner) - inner.count(0)]))


def parse_skew_shape(text, max_weight=None):
    """Parse "OUTER/INNER" (or bare "OUTER") with partition syntax on each side.

    max_weight caps each side as parse_partition does.
    """
    if "/" in text:
        outer, _, inner = text.partition("/")
        return SkewShape(parse_partition(outer, max_weight), parse_partition(inner, max_weight))
    return SkewShape(parse_partition(text, max_weight))


def format_skew_shape(s):
    return f"{format_partition(s.outer)}/{format_partition(s.inner)}"
