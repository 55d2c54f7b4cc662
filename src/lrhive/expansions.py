"""Schur product and skew expansions by either engine; the two must agree term by term.

Each engine expands a skew shape in one row-by-row walk, and both expand
s_mu s_nu as the skew shape mu*nu.  Tableaux fill the shape; hives leave
the nu side free and walk it last, each row right to left, so the final
states are the terms.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, contains
from .skew import SkewShape, star


class Expansion:
    """A finite map from partitions to positive coefficients, one weight, keyed by parts.

    Written by hand, not a named tuple: it is a mapping, with its own
    validation and its own equality with dicts.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = dict(coeffs)
        weights = {p.weight for p in coeffs}
        if len(weights) > 1:
            raise ValueError("all terms must share one weight")
        for p, c in coeffs.items():
            if c < 1:
                raise ValueError(f"coefficient of {p} must be positive, got {c}")
        self._coeffs = {p.parts: c for p, c in coeffs.items()}

    @classmethod
    def _of(cls, coeffs):
        """Trusted construction from {parts tuple: positive coefficient}."""
        e = object.__new__(cls)
        e._coeffs = coeffs
        return e

    def terms(self):
        """(partition, coefficient) pairs in decreasing lexicographic order."""
        return [(Partition._of(t), c) for t, c in sorted(self._coeffs.items(), reverse=True)]

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
                for r, c in product_expansion(Partition._of(p), Partition._of(q))._coeffs.items():
                    total[r] = total.get(r, 0) + cp * cq * c
        return Expansion._of(total)

    def __getitem__(self, p):
        return self._coeffs.get(p.parts, 0)

    def __contains__(self, p):
        return p.parts in self._coeffs

    def __iter__(self):
        return (Partition._of(t) for t in sorted(self._coeffs, reverse=True))

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, Expansion):
            return self._coeffs == other._coeffs
        if isinstance(other, dict):
            return self._coeffs == {p.parts: c for p, c in other.items()}
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{p.parts}: {c}" for p, c in self.terms())
        return f"Expansion({{{inner}}})"


def lr_coefficient(lam, mu, nu, method="hive"):
    """Single coefficient by the chosen engine."""
    engine = _engine(method)
    return (engine.lr_tableau_count if method == "tableau" else engine.lr_coefficient_hive)(lam, mu, nu)


@lru_cache(maxsize=2)
def _engine(method):
    """The named engine's module, imported the first time it is named; callers read its functions off it.

    Its lr_expansion_states returns the final states of a shape's walk, and
    the function giving each one's parts.
    """
    if method == "tableau":
        from . import tableaux as engine
    elif method == "hive":
        from . import hives as engine
    else:
        raise ValueError(f"unknown method {method!r}")
    return engine


def _product_shape(mu, nu):
    """The skew shape mu*nu, whose skew Schur function is s_mu s_nu."""
    return star(SkewShape(mu), SkewShape(nu))


def product_expansion(mu, nu, method="hive"):
    """Expansion of the product of the two Schur functions indexed by mu, nu.

    The skew expansion of mu*nu.  Not cached: every call walks again.
    """
    return skew_expansion(_product_shape(mu, nu), method)


def skew_expansion(shape, method="hive"):
    """Expansion of the skew Schur function of the given shape.

    By tableaux: one walk over the shape.  By hives: one walk on the side
    len(outer) with the nu side free.  Each final state is one term.
    """
    states, parts = _engine(method).lr_expansion_states(shape.outer, shape.inner)
    return Expansion._of({parts(state): c for state, c in states.items()})


def max_multiplicity(shape, method="hive"):
    """The largest coefficient in the skew Schur function of the shape.

    Read off the walk's final states, so no term is built.
    """
    states, _ = _engine(method).lr_expansion_states(shape.outer, shape.inner)
    return max(states.values(), default=0)


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
