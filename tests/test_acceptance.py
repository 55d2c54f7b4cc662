"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every equality is an exact integer check; the stated wall-clock ceilings are
asserted where given.  Run with -s (or read the -v test lines) to see the
per-criterion report.
"""

import random
import time
from itertools import product as iproduct

from lrhive.classify import lifted_witness, product_witness, skew_witness
from lrhive.expansions import duality_check, lr_coefficient, product_expansion, skew_expansion
from lrhive.hives import default_hive_side, enumerate_lr_hives, lr_coefficient_hive
from lrhive.partitions import (
    Partition,
    add,
    boundary_segments,
    bounded_partitions,
    complement,
    conjugate,
    parse_partition,
    partitions_in_box,
    shortness,
    subpartitions,
    union,
)
from lrhive.skew import SkewShape, parse_skew_shape
from lrhive.sweep import verify_sweep
from lrhive.tableaux import lr_tableau_count

P = parse_partition
S = parse_skew_shape


def criterion(number, description, body, limit=None):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"criterion {number:2d}: PASS - {description} ({elapsed:.2f}s)")


def test_c01_classic_coefficient_by_both_engines():
    def body():
        assert lr_coefficient_hive(P("3,2,1"), P("2,1"), P("2,1")) == 2
        assert lr_tableau_count(P("3,2,1"), P("2,1"), P("2,1")) == 2

    criterion(1, "c^{321}_{21,21} = 2 by hives and by tableaux", body, limit=1.0)


def test_c02_staircase_expansion():
    def body():
        got = {p.parts: c for p, c in skew_expansion(S("3,2,1/2,1")).terms()}
        assert got == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}

    criterion(2, "skew 321/21 expands to {3:1, 21:2, 111:1}", body)


def test_c03_seven_term_expansion():
    def body():
        got = {p.parts: c for p, c in skew_expansion(S("4,3,2,1/2,2")).terms()}
        assert got == {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        }

    criterion(3, "skew 4321/22: seven terms, coefficient 2 only at 321", body, limit=5.0)


# the 31 distinct terms of the published expansion; (5,4,3,2,1) is the
# unique one with coefficient 2
_BIG_TERMS = {
    (6, 5, 3, 1): 1,
    (6, 5, 2, 1, 1): 1,
    (6, 4, 3, 2): 1,
    (6, 4, 3, 1, 1): 1,
    (6, 4, 2, 2, 1): 1,
    (6, 4, 2, 1, 1, 1): 1,
    (6, 3, 3, 3): 1,
    (6, 3, 3, 2, 1): 1,
    (6, 3, 2, 2, 1, 1): 1,
    (5, 5, 4, 1): 1,
    (5, 5, 3, 2): 1,
    (5, 5, 3, 1, 1): 1,
    (5, 5, 2, 2, 1): 1,
    (5, 4, 4, 2): 1,
    (5, 4, 4, 1, 1): 1,
    (5, 4, 3, 3): 1,
    (5, 4, 3, 2, 1): 2,
    (5, 4, 3, 1, 1, 1): 1,
    (5, 4, 2, 2, 2): 1,
    (5, 4, 2, 2, 1, 1): 1,
    (5, 3, 3, 3, 1): 1,
    (5, 3, 3, 2, 2): 1,
    (5, 3, 3, 2, 1, 1): 1,
    (5, 3, 2, 2, 2, 1): 1,
    (4, 4, 4, 2, 1): 1,
    (4, 4, 4, 1, 1, 1): 1,
    (4, 4, 3, 3, 1): 1,
    (4, 4, 3, 2, 2): 1,
    (4, 4, 3, 2, 1, 1): 1,
    (4, 3, 3, 3, 2): 1,
    (4, 3, 3, 2, 2, 1): 1,
}


def test_c04_published_31_term_expansion():
    def body():
        shape = S("6^2,4^2,2^2/3^3")
        by_hive = {p.parts: c for p, c in skew_expansion(shape, method="hive").terms()}
        assert by_hive == _BIG_TERMS
        assert [parts for parts, c in by_hive.items() if c == 2] == [(5, 4, 3, 2, 1)]
        by_tableau = {p.parts: c for p, c in skew_expansion(shape, method="tableau").terms()}
        assert by_tableau == _BIG_TERMS
        assert len(by_tableau) == 31

    criterion(4, "skew 6^2 4^2 2^2/3^3 matches the published 31 terms", body, limit=300.0)


def test_c05_complement_and_shortness():
    def body():
        assert complement(P("9,9,6,6,6"), 9, 5) == P("3,3,3")
        assert boundary_segments(P("5,5,2"), 9, 5).segments == (2, 2, 1, 3, 2, 4)
        assert shortness(P("5,5,2"), 9, 5) == 1
        assert shortness(P("3,3,3"), 9, 5) == 2

    criterion(5, "complement, boundary segments and shortness values", body)


def test_c06_normal_forms():
    def body():
        assert S("9,8,5,3,3,3/7,5,5,3,2,1").to_basic() == S("6,5,2,2/4,2,1")
        assert S("6,5,2,2,1/4,2,1").components() == [S("4,3/2"), S("2,2,1/1")]
        assert S("4,3,2/2").rotate_pi() == S("4,4,2/2,1")

    criterion(6, "to_basic, components and pi-rotation normal forms", body)


def test_c07_product_sweep_3x3():
    def body():
        report = verify_sweep("products", (3, 3))
        assert report.instances == 400
        assert report.disagree == 0, report.disagreements

    criterion(7, "products sweep, all pairs in 3x3: zero disagreements", body, limit=600.0)


def test_c08_skew_sweep_4x4():
    def body():
        report = verify_sweep("skews", (4, 4))
        assert report.disagree == 0, report.disagreements
        assert report.instances > 400

    criterion(8, "skews sweep, all basic shapes in 4x4: zero disagreements", body, limit=1800.0)


_GRID = {
    "Q1": ("abcd", product_witness),
    "Q2": ("abcd", product_witness),
    "Q3": ("abc", product_witness),
    "T1i": ("abcde", skew_witness),
    "T1ii": ("abcde", skew_witness),
    "T2i": ("abcde", skew_witness),
    "T2ii": ("abcde", skew_witness),
    "T3i": ("abcd", skew_witness),
    "T3ii": ("abcd", skew_witness),
    "U1i": ("abcde", lifted_witness),
    "U1ii": ("abcde", lifted_witness),
    "U2i": ("abcde", lifted_witness),
    "U2ii": ("abcde", lifted_witness),
    "U3i": ("abcd", lifted_witness),
    "U3ii": ("abcd", lifted_witness),
}


def test_c09_witness_grids():
    def body():
        failures = []
        totals = {}
        for case, (names, build) in _GRID.items():
            count = 0
            for vals in iproduct(range(1, 8), repeat=len(names)):
                try:
                    w = build(case, **dict(zip(names, vals)))
                except ValueError:
                    continue
                count += 1
                got = w.verify()
                ok = got == 2 if w.expected == "exactly 2" else got >= 2
                if not ok:
                    failures.append((case, vals, got))
            totals[case] = count
        assert all(totals.values()), totals
        assert not failures, failures

    criterion(9, "witness grids (parameters <= 7): every promise verified", body)


def test_c10_identity_suite():
    def body():
        parts = {w: list(bounded_partitions(w)) for w in range(10)}

        # symmetry under factor swap and simultaneous conjugation
        for w in range(10):
            for lam in parts[w]:
                lam_c = conjugate(lam)
                for k in range(w + 1):
                    for mu in parts[k]:
                        for nu in parts[w - k]:
                            c = lr_coefficient(lam, mu, nu)
                            assert c == lr_coefficient(lam, nu, mu)
                            assert c == lr_coefficient(lam_c, conjugate(mu), conjugate(nu))

        # skew/product duality via full expansions
        for w in range(10):
            for lam in parts[w]:
                for mu in subpartitions(lam):
                    for nu in parts[w - mu.weight]:
                        assert duality_check(lam, mu, nu)

        # rotation and basic invariance, plus component factorization
        for lam in partitions_in_box(4, 4):
            for mu in subpartitions(lam):
                s = SkewShape(lam, mu)
                e = skew_expansion(s)
                assert e == skew_expansion(s.rotate_pi())
                sb = s.to_basic()
                assert e == skew_expansion(sb)
                if sb.outer:
                    comps = sb.components()
                    if len(comps) >= 2:
                        prod = skew_expansion(comps[0])
                        for comp in comps[1:]:
                            prod = prod.multiply(skew_expansion(comp))
                        assert e == prod

        # complement identity for all boxes up to 4x4
        for m in range(1, 5):
            for n in range(1, 5):
                box = partitions_in_box(m, n)
                for lam in box:
                    lam_star = complement(lam, m, n)
                    for mu in box:
                        for nu in box:
                            if mu.weight + nu.weight != lam.weight:
                                continue
                            assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                                complement(nu, m, n), lam_star, mu
                            )

        # row/column augmentation inequalities on 100 seeded samples
        rng = random.Random(0)
        done = 0
        while done < 100:
            w = rng.randint(1, 10)
            lam = rng.choice(list(bounded_partitions(w)))
            mu = rng.choice(list(subpartitions(lam)))
            keys = list(skew_expansion(SkewShape(lam, mu)))
            if not keys:
                continue
            nu = rng.choice(keys)
            base = lr_coefficient(lam, mu, nu)
            a = rng.randint(1, 3)
            b = rng.randint(0, a)
            c = a - b
            ones = lambda k: Partition([1] * k)
            assert lr_coefficient(add(lam, ones(a)), add(mu, ones(b)), add(nu, ones(c))) >= base
            assert (
                lr_coefficient(
                    union(lam, Partition([a])),
                    union(mu, Partition([b])),
                    union(nu, Partition([c])),
                )
                >= base
            )
            done += 1

    criterion(10, "identity suite: symmetries, duality, rotation, components, complement, lifts", body)


def test_c11_engine_cross_validation():
    def body():
        parts = {w: list(bounded_partitions(w)) for w in range(17)}
        rng = random.Random(7)
        for _ in range(200):
            w = rng.randint(0, 16)
            lam = rng.choice(parts[w])
            k = rng.randint(0, w)
            mu = rng.choice(parts[k])
            nu = rng.choice(parts[w - k])
            assert lr_coefficient_hive(lam, mu, nu) == lr_tableau_count(lam, mu, nu), (lam, mu, nu)
            n = default_hive_side(lam, mu, nu)
            if max(lam.length, mu.length, nu.length) <= n:
                row = enumerate_lr_hives(lam, mu, nu, n, scan_order="row-major")
                anti = enumerate_lr_hives(lam, mu, nu, n, scan_order="anti-diagonal")
                assert set(row) == set(anti), (lam, mu, nu)

    criterion(11, "hive = tableau on 200 seeded triples, scan-order independent", body)
