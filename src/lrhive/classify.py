"""Multiplicity-free classifications and the witnesses that break them.

One rule decides whether a Schur product, a basic skew Schur function, or a
product of two basic skew Schur functions is multiplicity-free: Stembridge's
four conditions, each stated once in _verdict.  The three classifiers differ
only in what they pass in -- the box each partition's shortness is read in,
and the partitions each factor presents as.  Alongside them sit explicit
witness constructions that, for every parameter choice outside the
multiplicity-free lists, produce a target partition whose coefficient is (at
least) 2 -- verifiable by the hive engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hives import lr_coefficient_hive
from .partitions import Partition, complement, shape_class, union
from .skew import SkewShape

PRODUCT_WITNESS_CASES = ("Q1", "Q2", "Q3")
SKEW_WITNESS_CASES = ("T1i", "T1ii", "T2i", "T2ii", "T3i", "T3ii")
LIFTED_WITNESS_CASES = ("U1i", "U1ii", "U2i", "U2ii", "U3i", "U3ii")


@dataclass(frozen=True)
class MFVerdict:
    """Outcome of a classification: every case that fired; free iff one did."""

    cases: frozenset

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


@dataclass(frozen=True)
class Witness:
    """A triple built to carry multiplicity, with its promised coefficient."""

    case_label: str
    lam: Partition
    mu: Partition
    nu: Partition
    constructed: Partition
    expected: str  # "exactly 2" or "at least 2"

    def verify(self):
        """Hive count of the witness triple."""
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


def _take(params, names, case):
    names = names.split()
    missing = [k for k in names if k not in params]
    extra = [k for k in params if k not in names]
    if missing or extra:
        raise ValueError(
            f"{case} takes parameters {', '.join(names)}; "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    return tuple(int(params[k]) for k in names)


def _need(cond, desc, case):
    if not cond:
        raise ValueError(f"{case} requires {desc}")


def _need_basic(lam, mu, case):
    if not SkewShape(lam, mu).is_basic():
        raise ValueError(f"{case} parameters give a non-basic shape {lam}/{mu}")


def product_witness(case, /, **params):
    """The tabulated lambda with coefficient exactly 2 for the (mu, nu) case."""
    case = _norm_case(case, PRODUCT_WITNESS_CASES)
    if case == "Q1":
        a, b, c, d = _take(params, "a b c d", case)
        _need(a > b > 0, "a > b > 0", case)
        _need(c > d > 0, "c > d > 0", case)
        mu, nu = Partition([a, b]), Partition([c, d])
        lam = Partition([a + c - 1, b + d, 1])
    elif case == "Q2":
        a, b, c, d = _take(params, "a b c d", case)
        _need(a > b > c > 0, "a > b > c > 0", case)
        _need(d > 1, "d > 1", case)
        mu, nu = Partition([a, b, c]), Partition([d, d])
        lam = Partition([a + d - 1, b + d - 1, c + 1, 1])
    else:  # Q3
        a, b, c = _take(params, "a b c", case)
        _need(a > b + 1, "a > b + 1", case)
        _need(b > 1, "b > 1", case)
        _need(c > 2, "c > 2", case)
        mu, nu = Partition([a, a, b, b]), Partition([c, c, c])
        lam = Partition([a + c - 1, a + c - 2, b + c - 1, b + 1, 2, 1])
    return Witness(case, lam, mu, nu, constructed=lam, expected="exactly 2")


def skew_witness(case, /, **params):
    """The tabulated nu with coefficient exactly 2 for the (lam, mu) case."""
    case = _norm_case(case, SKEW_WITNESS_CASES)
    if case.startswith("T1"):
        a, b, c, d, e = _take(params, "a b c d e", case)
        if case == "T1i":
            _need(a > b, "a > b", case)
            _need(b >= c + 1, "b >= c + 1", case)
            _need(c + 1 >= d, "c + 1 >= d", case)
            _need(d >= e + 1, "d >= e + 1", case)
            _need(e >= 1, "e >= 1", case)
            nu = Partition([a - 1, b - e, c - d + 1])
        else:
            _need(a > b, "a > b", case)
            _need(b >= d, "b >= d", case)
            _need(d >= c + 1, "d >= c + 1", case)
            _need(c >= e, "c >= e", case)
            _need(e >= 1, "e >= 1", case)
            nu = Partition([a - 1, b + c - d - e + 1, 0])
        lam, mu = Partition([a, b, c]), Partition([d, e])
    elif case.startswith("T2"):
        a, b, c, d, e = _take(params, "a b c d e", case)
        if case == "T2i":
            _need(a > b > c, "a > b > c", case)
            _need(c >= d + 1, "c >= d + 1", case)
            _need(d + 1 >= e, "d + 1 >= e", case)
            _need(e > 1, "e > 1", case)
            nu = Partition([a - 1, b - 1, c - e + 1, d - e + 1])
        else:
            _need(a > b > c, "a > b > c", case)
            _need(c >= e, "c >= e", case)
            _need(e >= d + 1, "e >= d + 1", case)
            _need(d >= 1, "d >= 1", case)
            nu = Partition([a - 1, b + d - e, c - e + 1, 0])
        lam, mu = Partition([a, b, c, d]), Partition([e, e])
    else:
        a, b, c, d = _take(params, "a b c d", case)
        if case == "T3i":
            _need(a - 1 > b, "a - 1 > b", case)
            _need(b > c + 1, "b > c + 1", case)
            _need(c + 1 >= d, "c + 1 >= d", case)
            _need(d > 2, "d > 2", case)
            nu = Partition([a - 1, a - 2, b - 1, b - d + 1, c - d + 2, c - d + 1])
        else:
            _need(a - 1 > b, "a - 1 > b", case)
            _need(b > d, "b > d", case)
            _need(d >= c + 1, "d >= c + 1", case)
            _need(c + 1 > 2, "c + 1 > 2", case)
            nu = Partition([a - 1, a + c - d - 1, b + c - d, b - d + 1, 1, 0])
        lam, mu = Partition([a, a, b, b, c, c]), Partition([d, d, d])
    _need_basic(lam, mu, case)
    return Witness(case, lam, mu, nu, constructed=nu, expected="exactly 2")


def _reduction_witness(family, sigma, tau):
    """nu of the T-case construction for sigma/tau, normalized to basic first.

    Deleting empty columns keeps the pair inside the same T-case family, so
    the parameters are re-read off the reduced shape; when both subcase
    chains hold, subcase (i) is used.
    """
    shape = SkewShape(sigma, tau).to_basic()
    out, inn = shape.outer, shape.inner
    if family == "T1":
        a, b, c = out.padded(3)
        d, e = inn.padded(2)
        case = "T1i" if c + 1 >= d else "T1ii"
        w = skew_witness(case, a=a, b=b, c=c, d=d, e=e)
    elif family == "T2":
        a, b, c, d = out.padded(4)
        e1, e2 = inn.padded(2)
        if e1 != e2:
            raise ValueError(f"reduced inner {inn} is not a square for T2")
        case = "T2i" if d + 1 >= e1 else "T2ii"
        w = skew_witness(case, a=a, b=b, c=c, d=d, e=e1)
    else:
        p = out.padded(6)
        q = inn.padded(3)
        if p[0] != p[1] or p[2] != p[3] or p[4] != p[5] or len(set(q)) != 1:
            raise ValueError(f"reduced pair {out}/{inn} is not of T3 form")
        a, b, c, d = p[0], p[2], p[4], q[0]
        case = "T3i" if c + 1 >= d else "T3ii"
        w = skew_witness(case, a=a, b=b, c=c, d=d)
    return w.nu


def lifted_witness(case, /, **params):
    """A nu with coefficient at least 2, lifted from a reduced T-case witness.

    Each case strips one row (and in the equal-parameter branches one column
    as well) to reach a T-case pair, takes that witness, and lifts it back by
    the row/column monotonicity of the coefficients.
    """
    case = _norm_case(case, LIFTED_WITNESS_CASES)
    if case == "U1i":
        a, b, c, d, e = _take(params, "a b c d e", case)
        _need(a > b > c > 0, "a > b > c > 0", case)
        _need(d > e > 0, "d > e > 0", case)
        _need(a > d, "a > d", case)
        lam, mu = Partition([a, a, b, c]), Partition([d, e])
        _need_basic(lam, mu, case)
        if b > e:
            rho = _reduction_witness("T1", Partition([a, b, c]), Partition([d, e]))
            nu = union(rho, Partition([a]))
        else:
            rho = _reduction_witness("T1", Partition([a - 1, b, c]), Partition([d - 1, b - 1]))
            nu = union(rho, Partition([a - 1]))
    elif case == "U1ii":
        a, b, c, d, e = _take(params, "a b c d e", case)
        _need(a > b > c > 0, "a > b > c > 0", case)
        _need(d > e > 0, "d > e > 0", case)
        _need(b > d, "b > d", case)
        _need(c > e, "c > e", case)
        lam, mu = Partition([a, b, c, c]), Partition([d, d, e])
        _need_basic(lam, mu, case)
        rho = _reduction_witness("T1", Partition([a, b, c]), Partition([d, e]))
        nu = union(rho, Partition([c - d]))
    elif case == "U2i":
        a, b, c, d, e = _take(params, "a b c d e", case)
        _need(a > b > c > d > 0, "a > b > c > d > 0", case)
        _need(a > e + 1 > 2, "a > e + 1 > 2", case)
        lam, mu = Partition([a, a, b, c, d]), Partition([e, e])
        _need_basic(lam, mu, case)
        if b > e:
            rho = _reduction_witness("T2", Partition([a, b, c, d]), Partition([e, e]))
            nu = union(rho, Partition([a]))
        else:
            rho = _reduction_witness("T2", Partition([a - 1, b, c, d]), Partition([b - 1, b - 1]))
            nu = union(rho, Partition([a - 1]))
    elif case == "U2ii":
        a, b, c, d, e = _take(params, "a b c d e", case)
        _need(a > b > c > d > 0, "a > b > c > d > 0", case)
        _need(c > e > 1, "c > e > 1", case)
        _need(d > 1, "d > 1", case)
        lam, mu = Partition([a, b, c, d, d]), Partition([e, e, e])
        _need_basic(lam, mu, case)
        rho = _reduction_witness("T2", Partition([a, b, c, d]), Partition([e, e]))
        nu = union(rho, Partition([d - e]))
    elif case == "U3i":
        a, b, c, d = _take(params, "a b c d", case)
        _need(a > b + 1, "a > b + 1", case)
        _need(b > c + 1, "b > c + 1", case)
        _need(c > 1, "c > 1", case)
        _need(a > d + 2 > 4, "a > d + 2 > 4", case)
        lam, mu = Partition([a, a, a, b, b, c, c]), Partition([d, d, d])
        _need_basic(lam, mu, case)
        if b > d:
            rho = _reduction_witness("T3", Partition([a, a, b, b, c, c]), Partition([d, d, d]))
            nu = union(rho, Partition([a]))
        else:
            rho = _reduction_witness(
                "T3", Partition([a - 1, a - 1, b, b, c, c]), Partition([b - 1] * 3)
            )
            nu = union(rho, Partition([a - 1]))
    else:  # U3ii
        a, b, c, d = _take(params, "a b c d", case)
        _need(a > b + 1, "a > b + 1", case)
        _need(b > c + 1, "b > c + 1", case)
        _need(c > 2, "c > 2", case)
        _need(b > d + 1 > 3, "b > d + 1 > 3", case)
        lam, mu = Partition([a, a, b, b, c, c, c]), Partition([d, d, d, d])
        _need_basic(lam, mu, case)
        rho = _reduction_witness("T3", Partition([a, a, b, b, c, c]), Partition([d, d, d]))
        nu = union(rho, Partition([c - d]))
    return Witness(case, lam, mu, nu, constructed=nu, expected="at least 2")


def find_multiplicity_witness(expansion):
    """Lexicographically smallest term with coefficient >= 2, or None."""
    hits = [p for p, c in expansion.terms() if c >= 2]
    if not hits:
        return None
    p = min(hits, key=lambda q: q.parts)
    return (p, expansion[p])
