"""Schur product and skew expansions by either engine; the two must agree term by term.

Each engine expands a skew shape in one row-by-row walk, and both expand
s_mu s_nu as the skew shape mu*nu.  Tableaux fill the shape; hives leave
the nu side free and walk it last, each row right to left, so the final
states are the terms.
"""

from __future__ import annotations

from .hives import lr_coefficient_hive, lr_expansion_hive
from .partitions import contains
from .skew import SkewShape, star
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

    def max_multiplicity(self):
        return max(self._coeffs.values(), default=0)

    def multiply(self, other):
        """The product of the two symmetric functions, as an expansion.

        For each pair of terms c_p s_p and c_q s_q it adds c_p c_q times the
        expansion of s_p s_q: one uncached hive walk per pair of terms.
        """
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

    The skew expansion of star(mu, nu), whose skew Schur function is the
    product.  Not cached: every call walks again.
    """
    return skew_expansion(star(SkewShape(mu), SkewShape(nu)), method)


def skew_expansion(shape, method="hive"):
    """Expansion of the skew Schur function of the given shape.

    By tableaux: one walk over the shape.  By hives: one walk on the side
    len(outer) with the nu side free.
    """
    if method == "tableau":
        return Expansion(lr_expansion(shape.outer, shape.inner))
    if method == "hive":
        return Expansion(lr_expansion_hive(shape.outer, shape.inner))
    raise ValueError(f"unknown method {method!r}")


def duality_check(lam, mu, nu):
    """The coefficient of nu in lam/mu equals the coefficient of lam in mu*nu.

    Both sides are read off full hive expansions, each a walk with the nu
    side free: one on lam/mu and one on the shape mu*nu.  Mismatched
    weights make both sides 0.
    """
    if contains(mu, lam):
        skew_side = skew_expansion(SkewShape(lam, mu))[nu]
    else:
        skew_side = 0
    product_side = product_expansion(mu, nu)[lam]
    return skew_side == product_side
