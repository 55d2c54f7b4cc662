import random

import pytest

from lrhive.classify import (
    find_multiplicity_witness,
    gty_mf,
    skew_product_mf,
    stembridge_mf,
)
from lrhive.expansions import product_expansion, skew_expansion
from lrhive.partitions import Partition, parse_partition, partitions_in_box, subpartitions
from lrhive.skew import SkewShape, parse_skew_shape, star

P = parse_partition
S = parse_skew_shape


def basic_shapes_in_box(m, n):
    for lam in partitions_in_box(m, n):
        for mu in subpartitions(lam):
            s = SkewShape(lam, mu)
            if s.is_basic():
                yield s


def basic_skew_shapes_with_cells(max_cells):
    """Every basic skew shape with between 1 and max_cells cells.

    Built row by row: row sizes are a composition of the cell count, row
    offsets weakly decrease with the bottom row flush left; the basicness
    filter discards anything with an uncovered column.
    """
    shapes = []
    for total in range(1, max_cells + 1):
        for r in range(1, total + 1):

            def comps(i, rem, acc):
                if i == r:
                    if rem == 0:
                        yield list(acc)
                    return
                for c in range(1, rem - (r - i - 1) + 1):
                    acc.append(c)
                    yield from comps(i + 1, rem - c, acc)
                    acc.pop()

            for sizes in comps(0, total, []):
                def offsets(i, acc):
                    if i < 0:
                        outer = [acc[t] + sizes[t] for t in range(r)]
                        if all(outer[t] >= outer[t + 1] for t in range(r - 1)):
                            try:
                                s = SkewShape(Partition(outer), Partition(acc))
                            except ValueError:
                                return
                            if s.is_basic():
                                yield s
                        return
                    lo = acc[0] if acc else 0
                    hi = 0 if i == r - 1 else max_cells - sizes[i]
                    for o in range(lo, hi + 1):
                        acc.insert(0, o)
                        yield from offsets(i - 1, acc)
                        acc.pop(0)

                shapes.extend(offsets(r - 1, []))
    return shapes


class TestStembridge:
    def test_not_free_example(self):
        v = stembridge_mf(P("2,1"), P("2,1"))
        assert not v.multiplicity_free
        assert v.cases == frozenset()

    def test_one_line_rectangle(self):
        v = stembridge_mf(P("3"), P("7,5,5,2"))
        assert v.multiplicity_free
        assert "P1" in v.cases

    def test_two_line_and_near_rectangle(self):
        v = stembridge_mf(P("2,2"), P("3,3,1"))
        assert {"P2", "P3"} <= v.cases

    def test_zero_partition(self):
        assert "P0" in stembridge_mf(Partition(), P("2,1")).cases

    def test_cases_nonempty_iff_free(self):
        for mu in partitions_in_box(3, 3):
            for nu in partitions_in_box(3, 3):
                v = stembridge_mf(mu, nu)
                assert v.multiplicity_free == bool(v.cases)

    def test_exhaustive_3x3(self):
        # soundness and completeness against enumeration
        box = partitions_in_box(3, 3)
        for mu in box:
            for nu in box:
                free = product_expansion(mu, nu).max_multiplicity() <= 1
                assert stembridge_mf(mu, nu).multiplicity_free == free, (mu, nu)

    def test_random_pairs_4x4(self):
        rng = random.Random(3)
        box = partitions_in_box(4, 4)
        for _ in range(100):
            mu, nu = rng.choice(box), rng.choice(box)
            free = product_expansion(mu, nu).max_multiplicity() <= 1
            assert stembridge_mf(mu, nu).multiplicity_free == free, (mu, nu)


class TestGTY:
    def test_staircase_not_free(self):
        assert not gty_mf(S("3,2,1/2,1")).multiplicity_free

    def test_paper_shape_free_via_r2(self):
        v = gty_mf(S("9^2,6^3/5^2,2"))
        assert v.multiplicity_free
        assert "R2" in v.cases
        # the complement is also a rectangle while mu is a shortness-1 fat
        # hook, so the R3 disjunct fires as well
        assert "R3" in v.cases

    def test_big_shape_not_free(self):
        assert not gty_mf(S("6^2,4^2,2^2/3^3")).multiplicity_free

    def test_r0_for_unskewed_and_box(self):
        assert "R0" in gty_mf(S("3,2,1/0")).cases
        assert "R0" in gty_mf(S("3,3,3/2,1")).cases

    def test_rejects_non_basic(self):
        with pytest.raises(ValueError, match="to_basic"):
            gty_mf(S("3,1/2"))

    def test_exhaustive_4x4(self):
        for shape in basic_shapes_in_box(4, 4):
            free = skew_expansion(shape).max_multiplicity() <= 1
            assert gty_mf(shape).multiplicity_free == free, shape


class TestSkewProduct:
    def test_v2_example(self):
        v = skew_product_mf(S("2,2"), S("3,3,1"))
        assert v.multiplicity_free
        assert "V2" in v.cases

    def test_rotated_partition_is_seen(self):
        v = skew_product_mf(S("3"), S("4,4,4/2,1"))
        assert v.multiplicity_free
        assert "V1" in v.cases

    def test_non_partition_factor_fails(self):
        v = skew_product_mf(S("3"), S("2,2,1/1"))
        assert not v.multiplicity_free
        # the enumeration agrees: multiplicity 2 shows up at (4,2,1)
        e = skew_expansion(S("2,2,1/1")).multiply(skew_expansion(S("3")))
        assert e[P("4,2,1")] == 2

    def test_rejects_non_basic(self):
        with pytest.raises(ValueError):
            skew_product_mf(S("3,1/2"), S("1"))

    def test_rejects_empty_factor(self):
        with pytest.raises(ValueError):
            skew_product_mf(S("0/0"), S("1"))

    def test_reduction_to_product_classifier(self):
        # on unskewed factors the V-cases match the P-cases label for label
        box = [p for p in partitions_in_box(3, 3) if p]
        for mu in box:
            for nu in box:
                pv = stembridge_mf(mu, nu)
                vv = skew_product_mf(SkewShape(mu), SkewShape(nu))
                assert pv.multiplicity_free == vv.multiplicity_free, (mu, nu)
                assert {c[1] for c in pv.cases if c != "P0"} == {c[1] for c in vv.cases}

    def test_star_shape_is_the_product(self):
        # the identity the consistency tests below rely on, against the
        # independent product: one hive walk per pair of terms
        shapes = basic_skew_shapes_with_cells(4)
        for i, theta in enumerate(shapes):
            for phi in shapes[i:]:
                product = skew_expansion(theta).multiply(skew_expansion(phi))
                assert skew_expansion(star(theta, phi), method="tableau") == product, (theta, phi)

    def test_consistency_small_exhaustive(self):
        shapes = basic_skew_shapes_with_cells(5)
        for i, theta in enumerate(shapes):
            for phi in shapes[i:]:
                free = skew_expansion(star(theta, phi), method="tableau").max_multiplicity() <= 1
                assert skew_product_mf(theta, phi).multiplicity_free == free, (theta, phi)

    def test_consistency_sampled_to_8_cells(self):
        shapes = basic_skew_shapes_with_cells(8)
        rng = random.Random(5)
        for _ in range(300):
            theta, phi = rng.choice(shapes), rng.choice(shapes)
            free = skew_expansion(star(theta, phi), method="tableau").max_multiplicity() <= 1
            assert skew_product_mf(theta, phi).multiplicity_free == free, (theta, phi)


class TestFindWitness:
    def test_product_witness(self):
        got = find_multiplicity_witness(product_expansion(P("2,1"), P("2,1")))
        assert got == (P("3,2,1"), 2)

    def test_box_skew_has_none(self):
        assert find_multiplicity_witness(skew_expansion(S("3,3,3/2,1"))) is None

    def test_skew_witness(self):
        got = find_multiplicity_witness(skew_expansion(S("4,3,2,1/2,2")))
        assert got == (P("3,2,1"), 2)

    def test_lexicographically_smallest(self):
        # two coefficient-2 terms: pick the lex-smaller key
        e = skew_expansion(S("5,4,2,1/2,1"))
        hits = sorted(p.parts for p, c in e.terms() if c >= 2)
        assert len(hits) >= 2
        got = find_multiplicity_witness(e)
        assert got[0].parts == hits[0]
