"""Multiplicity-free classifications and the witnesses that break them.

One rule decides whether a Schur product, a basic skew Schur function, or a
product of two basic skew Schur functions is multiplicity-free: Stembridge's
four conditions, each stated once in _verdict.  The three classifiers differ
only in what they pass in -- the box each partition's shortness is read in,
and the partitions each factor presents as.  Alongside them sit the paper's
witness constructions, one table of cases (_CASES) read by one builder
(_witness), that for every parameter choice outside the multiplicity-free
lists produce a target partition whose coefficient is (at least) 2 --
verifiable by the hive engine.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import index as _as_int

from .partitions import Partition, complement, shape_class, union
from .skew import SkewShape

PRODUCT_WITNESS_CASES = ("Q1", "Q2", "Q3")
SKEW_WITNESS_CASES = ("T1i", "T1ii", "T2i", "T2ii", "T3i", "T3ii")
LIFTED_WITNESS_CASES = ("U1i", "U1ii", "U2i", "U2ii", "U3i", "U3ii")


class MFVerdict(namedtuple("MFVerdict", "cases")):
    """Outcome of a classification: every case that fired; free iff one did."""

    __slots__ = ()

    @property
    def multiplicity_free(self):
        return bool(self.cases)

    def sorted_cases(self):
        return sorted(self.cases)


def _own_class(p):
    """shape_class of p in its own box, first part x length."""
    return shape_class(p, p.parts[0] if p else 0, p.length)


def _verdict(prefix, empty, x, y):
    """Stembridge's conditions 1-4 on two factors, labelled prefix + number.

    Each factor is a pair (its own class, the classes of the partitions it
    presents as); a condition holds if it holds either way round.  Case 0
    fires when empty is true.
    """
    cases = {prefix + "0"} if empty else set()
    for (own, _), (_, forms) in ((x, y), (y, x)):
        if own.is_one_line_rectangle and forms:
            cases.add(prefix + "1")
        if own.is_two_line_rectangle and any(f.is_fat_hook for f in forms):
            cases.add(prefix + "2")
        if own.is_rectangle and any(f.is_near_rectangle for f in forms):
            cases.add(prefix + "3")
        if own.is_rectangle and any(f.is_rectangle for f in forms):
            cases.add(prefix + "4")
    return MFVerdict(frozenset(cases))


def stembridge_mf(mu, nu):
    """Classify the Schur function product indexed by (mu, nu).

    mu and nu are read in their own boxes, each presenting only as itself.
    All satisfied case labels P0..P4 are reported, not just the first.
    """
    cm, cn = _own_class(mu), _own_class(nu)
    return _verdict("P", not mu or not nu, (cm, [cm]), (cn, [cn]))


def gty_mf(shape):
    """Classify a basic skew Schur function lam/mu via its box complement.

    With m the first part and n the length of lam, Stembridge's conditions
    (_verdict) are applied to mu and the m^n-complement lam* of lam, both
    read in the m x n box; the cases are R0..R4, and R0 fires when mu or lam*
    is empty.  Non-basic input is rejected: normalizing silently would change
    the box.
    """
    if not shape.is_basic():
        raise ValueError(
            f"{shape} is not basic; reduce it with to_basic() before classifying"
        )
    lam, mu = shape.outer, shape.inner
    m, n = lam.parts[0] if lam else 0, lam.length
    lstar = complement(lam, m, n)
    cm, cs = shape_class(mu, m, n), shape_class(lstar, m, n)
    return _verdict("R", not mu or not lstar, (cm, [cm]), (cs, [cs]))


def _partition_forms(s):
    """The partitions s presents as: itself if unskewed, and its rotation."""
    forms = []
    if not s.inner:
        forms.append(s.outer)
    rotated = s.rotate_pi()
    if not rotated.inner and rotated.outer not in forms:
        forms.append(rotated.outer)
    return forms


def skew_product_mf(theta, phi):
    """Classify the product of two nonempty basic skew Schur functions.

    Stembridge's conditions (_verdict), with cases V1..V4 and no V0: a
    factor's own class is that of its outer partition when it is unskewed
    and the empty class otherwise, and its forms are the partitions it or
    its rotation is.  A basic shape whose rotation is a rectangle is that
    rectangle unskewed, so V4 asks for two unskewed rectangles.
    """
    for name, s in (("theta", theta), ("phi", phi)):
        if not s.is_basic():
            raise ValueError(f"{name} = {s} is not basic; call to_basic() first")
        if s.size == 0:
            raise ValueError(
                f"{name} is empty; the classification covers nonempty factors only"
            )

    def factor(s):
        own = _own_class(s.outer if not s.inner else Partition())
        return own, [_own_class(f) for f in _partition_forms(s)]

    return _verdict("V", False, factor(theta), factor(phi))


class Witness(namedtuple("Witness", "case_label lam mu nu constructed expected")):
    """A triple built to carry multiplicity; expected is "exactly 2" or "at least 2"."""

    __slots__ = ()

    def verify(self):
        """Hive count of the witness triple."""
        from .hives import lr_coefficient_hive

        return lr_coefficient_hive(self.lam, self.mu, self.nu)

    def holds(self, count):
        """Whether a count of the triple, as verify() returns it, keeps the promise."""
        if self.expected == "exactly 2":
            return count == 2
        return count >= 2


def _norm_case(case, known):
    key = case.replace("(", "").replace(")", "").strip()
    for label in known:
        if key.lower() == label.lower():
            return label
    raise ValueError(f"unknown case {case!r}; expected one of {', '.join(known)}")


def _lift(family, outer, inner, part):
    """Parts of nu for a U case: a T-case witness lifted back by one part.

    outer/inner is normalized to basic first.  Deleting empty columns keeps
    the pair inside the T-case family, so the parameters are re-read off the
    reduced shape; subcase (i) is used when its requirements hold.  Adding
    the part undoes the stripped row by the row/column monotonicity of the
    coefficients.
    """
    shape = SkewShape(Partition(outer), Partition(inner)).to_basic()
    out, inn = shape.outer.padded(6), shape.inner.padded(3)
    read = {"T1": out[:3] + inn[:2], "T2": out[:4] + inn[:1], "T3": out[:6:2] + inn[:1]}
    values = dict(zip("abcde", read[family]))
    case = family + ("i" if _unmet(family + "i", values) is None else "ii")
    w = skew_witness(case, **values)
    if (w.lam, w.mu) != (shape.outer, shape.inner):
        raise ValueError(f"reduced pair {shape} is not of {family} form")
    return union(w.nu, Partition([part])).parts


# Every witness case: its requirements, checked in order, as comparisons of
# the integer parameters; the pair it is given, (mu, nu) for Q and lam/mu for
# T and U; and the partition it constructs, lam for Q and nu for T and U.
# The parameters are the arguments of the pair.
_CASES = {
    "Q1": (("a > b > 0", "c > d > 0"),
           lambda a, b, c, d: ((a, b), (c, d)),
           lambda a, b, c, d: (a + c - 1, b + d, 1)),
    "Q2": (("a > b > c > 0", "d > 1"),
           lambda a, b, c, d: ((a, b, c), (d, d)),
           lambda a, b, c, d: (a + d - 1, b + d - 1, c + 1, 1)),
    "Q3": (("a > b + 1", "b > 1", "c > 2"),
           lambda a, b, c: ((a, a, b, b), (c, c, c)),
           lambda a, b, c: (a + c - 1, a + c - 2, b + c - 1, b + 1, 2, 1)),
    "T1i": (("a > b", "b >= c + 1", "c + 1 >= d", "d >= e + 1", "e >= 1"),
            lambda a, b, c, d, e: ((a, b, c), (d, e)),
            lambda a, b, c, d, e: (a - 1, b - e, c - d + 1)),
    "T1ii": (("a > b", "b >= d", "d >= c + 1", "c >= e", "e >= 1"),
             lambda a, b, c, d, e: ((a, b, c), (d, e)),
             lambda a, b, c, d, e: (a - 1, b + c - d - e + 1, 0)),
    "T2i": (("a > b > c", "c >= d + 1", "d + 1 >= e", "e > 1"),
            lambda a, b, c, d, e: ((a, b, c, d), (e, e)),
            lambda a, b, c, d, e: (a - 1, b - 1, c - e + 1, d - e + 1)),
    "T2ii": (("a > b > c", "c >= e", "e >= d + 1", "d >= 1"),
             lambda a, b, c, d, e: ((a, b, c, d), (e, e)),
             lambda a, b, c, d, e: (a - 1, b + d - e, c - e + 1, 0)),
    "T3i": (("a - 1 > b", "b > c + 1", "c + 1 >= d", "d > 2"),
            lambda a, b, c, d: ((a, a, b, b, c, c), (d, d, d)),
            lambda a, b, c, d: (a - 1, a - 2, b - 1, b - d + 1, c - d + 2, c - d + 1)),
    "T3ii": (("a - 1 > b", "b > d", "d >= c + 1", "c + 1 > 2"),
             lambda a, b, c, d: ((a, a, b, b, c, c), (d, d, d)),
             lambda a, b, c, d: (a - 1, a + c - d - 1, b + c - d, b - d + 1, 1, 0)),
    "U1i": (("a > b > c > 0", "d > e > 0", "a > d"),
            lambda a, b, c, d, e: ((a, a, b, c), (d, e)),
            lambda a, b, c, d, e: _lift("T1", (a, b, c), (d, e), a) if b > e
            else _lift("T1", (a - 1, b, c), (d - 1, b - 1), a - 1)),
    "U1ii": (("a > b > c > 0", "d > e > 0", "b > d", "c > e"),
             lambda a, b, c, d, e: ((a, b, c, c), (d, d, e)),
             lambda a, b, c, d, e: _lift("T1", (a, b, c), (d, e), c - d)),
    "U2i": (("a > b > c > d > 0", "a > e + 1 > 2"),
            lambda a, b, c, d, e: ((a, a, b, c, d), (e, e)),
            lambda a, b, c, d, e: _lift("T2", (a, b, c, d), (e, e), a) if b > e
            else _lift("T2", (a - 1, b, c, d), (b - 1, b - 1), a - 1)),
    "U2ii": (("a > b > c > d > 0", "c > e > 1", "d > 1"),
             lambda a, b, c, d, e: ((a, b, c, d, d), (e, e, e)),
             lambda a, b, c, d, e: _lift("T2", (a, b, c, d), (e, e), d - e)),
    "U3i": (("a > b + 1", "b > c + 1", "c > 1", "a > d + 2 > 4"),
            lambda a, b, c, d: ((a, a, a, b, b, c, c), (d, d, d)),
            lambda a, b, c, d: _lift("T3", (a, a, b, b, c, c), (d, d, d), a) if b > d
            else _lift("T3", (a - 1, a - 1, b, b, c, c), (b - 1,) * 3, a - 1)),
    "U3ii": (("a > b + 1", "b > c + 1", "c > 2", "b > d + 1 > 3"),
             lambda a, b, c, d: ((a, a, b, b, c, c, c), (d, d, d, d)),
             lambda a, b, c, d: _lift("T3", (a, a, b, b, c, c), (d, d, d), c - d)),
}


@lru_cache(maxsize=None)
def _compiled(requirement):
    return compile(requirement, requirement, "eval")


def _unmet(case, values):
    """The first requirement of the case that the integer values break, or None."""
    for requirement in _CASES[case][0]:
        if not eval(_compiled(requirement), {"__builtins__": {}}, values):
            return requirement
    return None


def _witness(case, known, params):
    """The witness of a case in known: names, requirements, basicness, construction."""
    case = _norm_case(case, known)
    _, given, construct = _CASES[case]
    names = given.__code__.co_varnames[:given.__code__.co_argcount]
    missing = [k for k in names if k not in params]
    extra = [k for k in params if k not in names]
    if missing or extra:
        raise ValueError(
            f"{case} takes parameters {', '.join(names)}; "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    values = {}
    for k in names:
        try:
            values[k] = _as_int(params[k])
        except TypeError:
            raise ValueError(
                f"{case} parameter {k} must be an integer, got {params[k]!r}"
            ) from None
    unmet = _unmet(case, values)
    if unmet is not None:
        raise ValueError(f"{case} requires {unmet}")
    first, second = (Partition(p) for p in given(**values))
    if case[0] == "Q":
        lam = Partition(construct(**values))
        return Witness(case, lam, first, second, constructed=lam, expected="exactly 2")
    if not SkewShape(first, second).is_basic():
        raise ValueError(f"{case} parameters give a non-basic shape {first}/{second}")
    nu = Partition(construct(**values))
    expected = "exactly 2" if case[0] == "T" else "at least 2"
    return Witness(case, first, second, nu, constructed=nu, expected=expected)


def build_witness(case, /, **params):
    """The witness of any tabulated case: Q, T or U, as its label names."""
    return _witness(case, PRODUCT_WITNESS_CASES + SKEW_WITNESS_CASES + LIFTED_WITNESS_CASES, params)


def product_witness(case, /, **params):
    """The tabulated lambda with coefficient exactly 2 for the (mu, nu) case."""
    return _witness(case, PRODUCT_WITNESS_CASES, params)


def skew_witness(case, /, **params):
    """The tabulated nu with coefficient exactly 2 for the (lam, mu) case."""
    return _witness(case, SKEW_WITNESS_CASES, params)


def lifted_witness(case, /, **params):
    """A nu with coefficient at least 2, lifted from a reduced T-case witness.

    Each case strips one row (and in the equal-parameter branches one column
    as well) to reach a T-case pair, takes that witness, and lifts it back by
    the row/column monotonicity of the coefficients.
    """
    return _witness(case, LIFTED_WITNESS_CASES, params)


def find_multiplicity_witness(expansion):
    """Lexicographically smallest term with coefficient >= 2, or None."""
    hits = [p for p, c in expansion.terms() if c >= 2]
    if not hits:
        return None
    p = min(hits, key=lambda q: q.parts)
    return (p, expansion[p])
