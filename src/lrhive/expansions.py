"""Schur product and skew expansions by either engine; the two must agree term by term.

Each engine expands in one row-by-row walk.  Tableaux fill a skew shape,
and s_mu s_nu as the skew shape mu*nu.  Hives leave the side of the output
partition free and walk it last, so the final states are the terms.
"""

from __future__ import annotations

from .hives import lr_coefficient_hive, lr_expansion_hive
from .partitions import Partition, contains
from .skew import SkewShape
from .tableaux import lr_expansion, lr_tableau_count

class Expansion:
    """A finite map from partitions to positive coefficients, one weight."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = dict(coeffs)
        weights = {p.weight for p in coeffs}
        if len(weights) > 1:
            raise ValueError("all terms must share one weight")
        for p, c in coeffs.items():
            if c < 1:
                raise ValueError(f"coefficient of {p} must be positive, got {c}")
        self._coeffs = coeffs

    def terms(self):
        """(partition, coefficient) pairs in decreasing lexicographic order."""
        return sorted(self._coeffs.items(), key=lambda t: t[0].parts, reverse=True)

    def as_dict(self):
        return dict(self._coeffs)

    def max_multiplicity(self):
        return max(self._coeffs.values(), default=0)

    def multiply(self, other):
        """Coefficient-wise product: one uncached hive walk per pair of terms."""
        total = {}
        for p, cp in self._coeffs.items():
            for q, cq in other._coeffs.items():
                for r, c in product_expansion(p, q).terms():
                    total[r] = total.get(r, 0) + cp * cq * c
        return Expansion(total)

    def __getitem__(self, p):
        return self._coeffs.get(p, 0)

    def __contains__(self, p):
        return p in self._coeffs

    def __iter__(self):
        return iter(sorted(self._coeffs, key=lambda p: p.parts, reverse=True))

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, Expansion):
            return self._coeffs == other._coeffs
        if isinstance(other, dict):
            return self._coeffs == other
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{p.parts}: {c}" for p, c in self.terms())
        return f"Expansion({{{inner}}})"


def lr_coefficient(lam, mu, nu, method="hive"):
    """Single coefficient by the chosen engine."""
    if method == "hive":
        return lr_coefficient_hive(lam, mu, nu)
    if method == "tableau":
        return lr_tableau_count(lam, mu, nu)
    raise ValueError(f"unknown method {method!r}")


def product_expansion(mu, nu, method="hive"):
    """Expansion of the product of the two Schur functions indexed by mu, nu.

    By tableaux: the skew shape mu*nu, outer (mu_i + nu_1, ..., nu) and inner
    (nu_1^len(mu)).  By hives: one walk on the side len(mu) + len(nu), with
    lambda free.  Not cached: every call walks again.
    """
    if method == "tableau":
        shift = nu.parts[0] if nu else 0
        outer = Partition([m + shift for m in mu.parts] + list(nu.parts))
        return Expansion(lr_expansion(outer, Partition([shift] * mu.length)))
    if method == "hive":
        return Expansion(lr_expansion_hive(None, mu, nu))
    raise ValueError(f"unknown method {method!r}")


def skew_expansion(shape, method="hive"):
    """Expansion of the skew Schur function of the given shape.

    By tableaux: one walk over the shape.  By hives: one walk on the side
    len(outer) with the nu side free.
    """
    if method == "tableau":
        return Expansion(lr_expansion(shape.outer, shape.inner))
    if method == "hive":
        return Expansion(lr_expansion_hive(shape.outer, shape.inner, None))
    raise ValueError(f"unknown method {method!r}")


def duality_check(lam, mu, nu):
    """The coefficient of nu in lam/mu equals the coefficient of lam in mu*nu.

    Both sides are read off full hive expansions (nu free, lambda free), so
    the two routes are independent; mismatched weights make both sides 0.
    """
    if contains(mu, lam):
        skew_side = skew_expansion(SkewShape(lam, mu))[nu]
    else:
        skew_side = 0
    product_side = product_expansion(mu, nu)[lam]
    return skew_side == product_side
