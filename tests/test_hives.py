import itertools
import random
from fractions import Fraction
from functools import cache
from math import prod

import pytest

from lrhive.cli import main
from lrhive.expansions import max_multiplicity, product_expansion, skew_expansion
from lrhive.hives import (
    _ROW_LIMIT,
    Hive,
    HiveBoundary,
    _by_rows,
    _check_plan,
    _fill_boundary,
    _plan,
    _row_factory,
    _vertex_ids,
    default_hive_side,
    edge_labels,
    enumerate_lr_hives,
    free_interior_vertices,
    is_valid_lr_hive,
    lr_coefficient_hive,
    lr_expansion_states,
)
from lrhive.partitions import (
    Partition,
    add,
    bounded_partitions,
    conjugate,
    contains,
    parse_partition,
    partitions_in_box,
    subpartitions,
    union,
)
from lrhive.skew import SkewShape, star
from lrhive.tableaux import lr_tableau_count

P = parse_partition


def all_triples(max_weight, length_cap=None):
    parts = {w: list(bounded_partitions(w)) for w in range(max_weight + 1)}
    for w in range(max_weight + 1):
        for lam in parts[w]:
            if length_cap and lam.length > length_cap:
                continue
            for k in range(w + 1):
                for mu in parts[k]:
                    if length_cap and mu.length > length_cap:
                        continue
                    for nu in parts[w - k]:
                        if length_cap and nu.length > length_cap:
                            continue
                        yield lam, mu, nu


def product_triples(m, n):
    """(lam, mu, nu) for every mu, nu in the box and every candidate term lam of s_mu s_nu."""
    box = partitions_in_box(m, n)
    for mu in box:
        for nu in box:
            max_part = (mu.parts[0] if mu else 0) + (nu.parts[0] if nu else 0)
            for lam in bounded_partitions(mu.weight + nu.weight, Partition([max_part] * (mu.length + nu.length))):
                if contains(mu, lam) and contains(nu, lam):
                    yield lam, mu, nu


def basic_skew_triples(m, n):
    """(lam, mu, nu) for every basic skew shape lam/mu in the box and every nu inside lam."""
    for lam in partitions_in_box(m, n):
        for mu in subpartitions(lam):
            if not SkewShape(lam, mu).is_basic():
                continue
            for nu in bounded_partitions(lam.weight - mu.weight, Partition([lam.parts[0] if lam else 0] * lam.length)):
                if contains(nu, lam):
                    yield lam, mu, nu


def tight_side(lam, mu, nu):
    return max(lam.length, mu.length, nu.length)


def count_on_side(lam, mu, nu, n):
    """The frontier count on side n; lr_coefficient_hive counts on side len lam."""
    walked = _by_rows(lam, mu, nu, n)
    return 0 if walked is None else walked[2].get((), 0)


# The three plans the engine builds, as (free, keep) by job.
PLAN_KINDS = {"count": (False, False), "enumerate": (False, True), "expand": (True, False)}


class TestValidation:
    def test_unique_two_hive(self):
        # n = 2 has no interior vertices: the boundary alone decides validity
        b = HiveBoundary(2, P("2,1"), P("1"), P("1,1"))
        good = Hive(2, [[0, 1, 2], [2, 3], [3]])
        assert is_valid_lr_hive(good, b)
        assert enumerate_lr_hives(P("2,1"), P("1"), P("1,1"), 2) == [good]

    def test_boundary_perturbation_rejected(self):
        b = HiveBoundary(2, P("2,1"), P("1"), P("1,1"))
        assert not is_valid_lr_hive(Hive(2, [[0, 1, 3], [2, 3], [3]]), b)

    def test_rhombus_violation_rejected(self):
        # bump an interior vertex by one above its forced value
        b = HiveBoundary(3, P("2,2"), P("1,1"), P("1,1"))
        hives = enumerate_lr_hives(P("2,2"), P("1,1"), P("1,1"), 3)
        assert len(hives) == 1
        rows = [list(r) for r in hives[0].rows]
        rows[1][1] += 1
        assert not is_valid_lr_hive(Hive(3, rows), b)

    def test_rows_must_form_a_triangle(self):
        with pytest.raises(ValueError, match="rows must form a triangle of side n"):
            Hive(2, [[0, 1], [1]])
        with pytest.raises(ValueError, match="rows must form a triangle of side n"):
            Hive(2, [[0, 1, 2], [2, 3], [3]])._replace(n=1)
        with pytest.raises(ValueError, match="rows must form a triangle of side n"):
            Hive(-1, ())

    def test_builds_no_plan(self):
        hive = enumerate_lr_hives(P("3,2,1"), P("2,1"), P("2,1"), 3)[0]
        _plan.cache_clear()
        assert is_valid_lr_hive(hive, HiveBoundary(3, P("3,2,1"), P("2,1"), P("2,1")))
        assert _plan.cache_info().currsize == 0

    def test_dimension_mismatch(self):
        b = HiveBoundary(2, P("2,1"), P("1"), P("1,1"))
        with pytest.raises(ValueError):
            is_valid_lr_hive(Hive(1, [[0, 1], [1]]), b)

    def test_boundary_requires_weight_match(self):
        with pytest.raises(ValueError):
            HiveBoundary(3, P("3,1"), P("1"), P("1,1"))

    def test_boundary_requires_length_fit(self):
        with pytest.raises(ValueError):
            HiveBoundary(2, P("1,1,1"), P("2,1"), Partition())

    def test_boundary_replace_checks_too(self):
        boundary = HiveBoundary(3, P("3,1"), P("2"), P("1,1"))
        with pytest.raises(ValueError):
            boundary._replace(n=1)
        with pytest.raises(ValueError):
            boundary._replace(mu=P("1"))


class TestEnumeration:
    def test_multiplicity_two(self):
        assert len(enumerate_lr_hives(P("3,2,1"), P("2,1"), P("2,1"), 3)) == 2

    def test_identity_coefficient(self):
        for lam in (P("3,1"), P("2,2,1"), P("5")):
            for n in (lam.length, lam.length + 2):
                assert len(enumerate_lr_hives(lam, lam, Partition(), n)) == 1
                assert len(enumerate_lr_hives(lam, Partition(), lam, n)) == 1

    def test_cross_checked_single_hive(self):
        assert len(enumerate_lr_hives(P("4,2"), P("2,1"), P("2,1"), 4)) == 1
        assert lr_tableau_count(P("4,2"), P("2,1"), P("2,1")) == 1

    def test_weight_mismatch_is_empty(self):
        assert enumerate_lr_hives(P("3,1"), P("1"), P("1"), 2) == []

    def test_length_violation_raises(self):
        with pytest.raises(ValueError):
            enumerate_lr_hives(P("1,1,1"), P("1,1,1"), Partition(), 2)

    def test_every_enumerated_hive_validates(self):
        for lam, mu, nu in ((P("3,2,1"), P("2,1"), P("2,1")), (P("4,3,2,1"), P("2,2"), P("3,2,1"))):
            n = default_hive_side(lam, mu, nu)
            b = HiveBoundary(n, lam, mu, nu)
            for h in enumerate_lr_hives(lam, mu, nu, n):
                assert is_valid_lr_hive(h, b)

    def test_deterministic_order(self):
        args = (P("4,3,2,1"), P("2,2"), P("3,2,1"), 4)
        assert enumerate_lr_hives(*args) == enumerate_lr_hives(*args)

    def test_row_major_lexicographic(self):
        hives = enumerate_lr_hives(P("4,3,2,1"), P("2,2"), P("3,2,1"), 4)
        interiors = [
            tuple(h.rows[i][j] for i in range(1, 4) for j in range(1, 4 - i)) for h in hives
        ]
        assert interiors == sorted(interiors)

    def test_lexicographic_across_segments(self):
        # on side 19 the longest row has 17 vertices, walked as two segments
        n = 19
        assert max(len(row_steps) for row_steps, _ in _plan(n, False, True).rows) == _ROW_LIMIT
        hives = enumerate_lr_hives(P("4,3,2,1"), P("2,2"), P("3,2,1"), n)
        interiors = [tuple(h.rows[i][j] for i in range(1, n) for j in range(1, n - i)) for h in hives]
        assert len(interiors) == 2 and interiors == sorted(interiors)


class TestCoefficient:
    def test_paper_values(self):
        assert lr_coefficient_hive(P("3,2,1"), P("2,1"), P("2,1")) == 2
        assert lr_coefficient_hive(P("4,3,2,1"), P("2,2"), P("3,2,1")) == 2
        assert lr_coefficient_hive(P("6,6,4,4,2,2"), P("3,3,3"), P("5,4,3,2,1")) == 2

    def test_support_shortcuts(self):
        assert lr_coefficient_hive(P("3,1"), P("1"), P("1")) == 0  # weight
        assert lr_coefficient_hive(P("1,1,1,1"), P("1,1"), P("1,1")) == 1
        assert lr_coefficient_hive(P("1,1,1,1,1"), P("1,1"), P("1,1")) == 0  # too long
        assert lr_coefficient_hive(P("2,2"), P("2,2,1"), P("0")) == 0  # weight
        assert lr_coefficient_hive(Partition(), Partition(), Partition()) == 1


class TestFreeVertices:
    def test_single_free_vertex(self):
        assert free_interior_vertices(P("3,2,1"), P("2,1"), P("2,1"), 3) == {(1, 1)}

    def test_multiplicity_free_has_none(self):
        assert free_interior_vertices(P("4,2"), P("2,1"), P("2,1"), 4) == set()

    def test_one_of_three_interior(self):
        free = free_interior_vertices(P("4,3,2,1"), P("2,2"), P("3,2,1"), 4)
        assert len(free) == 1
        assert free <= {(1, 1), (1, 2), (2, 1)}

    def test_no_hive_raises(self):
        with pytest.raises(ValueError):
            free_interior_vertices(P("3,1"), P("1"), P("1"), 2)


class TestEdgeLabels:
    def test_boundary_families(self):
        h = enumerate_lr_hives(P("3,2,1"), P("2,1"), P("2,1"), 3)[0]
        fams = edge_labels(h)
        assert fams["lam"][0] == [3, 2, 1]
        assert fams["nu"][0] == [2, 1, 0]
        assert fams["mu"][-1] == [2, 1, 0]

    def test_monotone_nonnegative_on_every_hive(self):
        # interior edge labels weakly decrease along every boundary-parallel
        # line and never go negative, on every hive of a small full sweep
        hives_seen = 0
        for lam, mu, nu in all_triples(8):
            n = default_hive_side(lam, mu, nu)
            for h in enumerate_lr_hives(lam, mu, nu, n):
                fams = edge_labels(h)
                for lines in fams.values():
                    for line in lines:
                        assert all(v >= 0 for v in line)
                        assert all(a >= b for a, b in zip(line, line[1:]))
                hives_seen += 1
        assert hives_seen > 1000


class TestEnumerationOracles:
    def test_exhaustive_against_tableaux_and_rhombi(self):
        # against oracles that share nothing with the walk: the tableau
        # count and the rhombus check
        for lam, mu, nu in all_triples(8):
            n = default_hive_side(lam, mu, nu)
            hives = enumerate_lr_hives(lam, mu, nu, n)
            assert len(hives) == lr_tableau_count(lam, mu, nu), (lam, mu, nu)
            boundary = HiveBoundary(n, lam, mu, nu)
            assert all(is_valid_lr_hive(h, boundary) for h in hives), (lam, mu, nu)


class TestOracleAgreement:
    def test_exhaustive_weight_10_length_5(self):
        for lam, mu, nu in all_triples(10, length_cap=5):
            assert lr_coefficient_hive(lam, mu, nu) == lr_tableau_count(lam, mu, nu), (
                lam,
                mu,
                nu,
            )


class TestSymmetries:
    def test_commutativity_and_conjugation_weight_10(self):
        for lam, mu, nu in all_triples(10):
            c = lr_coefficient_hive(lam, mu, nu)
            assert c == lr_coefficient_hive(lam, nu, mu)
            assert c == lr_coefficient_hive(conjugate(lam), conjugate(mu), conjugate(nu))

    def test_add_column_row_inequalities(self):
        rng = random.Random(11)
        parts = {w: list(bounded_partitions(w)) for w in range(11)}
        done = 0
        while done < 100:
            w = rng.randint(1, 10)
            lam = rng.choice(parts[w])
            mu = rng.choice(list(subpartitions(lam)))
            nu = rng.choice(parts[w - mu.weight])
            base = lr_coefficient_hive(lam, mu, nu)
            if base == 0 and done % 3:
                continue  # keep a healthy share of nonzero bases
            a = rng.randint(1, 3)
            b = rng.randint(0, a)
            c = a - b
            ones = lambda k: Partition([1] * k)
            assert lr_coefficient_hive(add(lam, ones(a)), add(mu, ones(b)), add(nu, ones(c))) >= base
            assert (
                lr_coefficient_hive(
                    union(lam, Partition([a])), union(mu, Partition([b])), union(nu, Partition([c]))
                )
                >= base
            )
            done += 1


class TestHiveAddition:
    """Hives of one side form a cone: adding a fixed hive maps hives to hives, one to one."""

    # (alpha, beta, gamma) of the fixed hives
    FIXED = (("2,1", "1", "1,1"), ("3,2,1", "2,1", "2,1"), ("4,2,2", "2,2", "2,2"))

    @staticmethod
    def sum_of(h, f):
        return Hive(h.n, [[a + b for a, b in zip(r, s)] for r, s in zip(h.rows, f.rows)])

    def test_sums_are_distinct_hives_of_the_summed_boundary(self):
        n = 4
        sums = 0
        for alpha, beta, gamma in (map(P, fixed) for fixed in self.FIXED):
            fixed_hives = enumerate_lr_hives(alpha, beta, gamma, n)
            for lam, mu, nu in all_triples(7, length_cap=n):
                boundary = HiveBoundary(n, add(lam, alpha), add(mu, beta), add(nu, gamma))
                hives = enumerate_lr_hives(lam, mu, nu, n)
                for f in fixed_hives:
                    added = {self.sum_of(h, f) for h in hives}
                    assert len(added) == len(hives), (lam, mu, nu, f)
                    assert all(is_valid_lr_hive(h, boundary) for h in added), (lam, mu, nu, f)
                    sums += len(added)
        assert sums == 2140


# Steps up one place in an m x n box (parts at most m, at most n of them).
# A partition p steps up to p + (1^k) or to p u (a).  A product pair steps
# by stepping one factor; a skew shape lam/mu steps to (lam + 1^k)/(mu + 1^j)
# with j <= k, or to (lam u (a))/(mu u (b)) with b <= a (b = 0 inserts
# nothing into mu).  Each is hive addition (or its conjugate) with a triple
# whose coefficient is 1, so max multiplicity never falls along a step.
# Steps may leave the box; box_steps keeps those inside.
@cache
def plus_ones(p, k):
    return add(p, Partition([1] * k))


@cache
def with_part(p, a):  # a = 0 inserts nothing
    return union(p, Partition([a]))


def partition_steps(p, m, n):
    return [plus_ones(p, k) for k in range(1, n + 1)] + [with_part(p, a) for a in range(1, m + 1)]


def product_steps(mu, nu, m, n):
    return [(s, nu) for s in partition_steps(mu, m, n)] + [(mu, s) for s in partition_steps(nu, m, n)]


def skew_steps(lam, mu, m, n):
    return [(plus_ones(lam, k), plus_ones(mu, j)) for k in range(1, n + 1) for j in range(k + 1)] + [
        (with_part(lam, a), with_part(mu, b)) for a in range(1, m + 1) for b in range(a + 1)
    ]


@cache
def box_maxima(family, method, m, n):
    """{(mu, nu) or (lam, mu): max multiplicity} over every product pair, or every skew pair mu in lam, in the box."""
    box = partitions_in_box(m, n)
    if family == "products":
        return {
            (mu, nu): max_multiplicity(star(SkewShape(mu), SkewShape(nu)), method)
            for mu, nu in itertools.product(box, repeat=2)
        }
    return {(lam, mu): max_multiplicity(SkewShape(lam, mu), method) for lam in box for mu in subpartitions(lam)}


@cache
def box_steps(family, m, n):
    """{pair: the pairs one step above it in the box}, over box_maxima's pairs."""
    pairs = box_maxima(family, "hive", m, n)
    steps = product_steps if family == "products" else skew_steps
    return {pair: [s for s in steps(*pair, m, n) if s in pairs] for pair in pairs}


def digits(p):
    return "".join(map(str, p.parts))


class TestSteps:
    """Max multiplicity along the steps of hive addition, over every pair in the 4x4 box."""

    @pytest.mark.parametrize("family, steps_in_box", [("products", 39200), ("skews", 13720)])
    def test_max_multiplicity_never_falls_along_a_step(self, family, steps_in_box):
        maxima = box_maxima(family, "hive", 4, 4)
        assert maxima == box_maxima(family, "tableau", 4, 4)  # so one check covers both engines
        steps = box_steps(family, 4, 4)
        falls = [(pair, s) for pair, above in steps.items() for s in above if maxima[s] < maxima[pair]]
        assert falls == []
        assert sum(map(len, steps.values())) == steps_in_box

    @pytest.mark.parametrize("family, minimal", [
        ("products", {("21", "21"), ("22", "321"), ("321", "22"), ("333", "4422"), ("4422", "333")}),
        ("skews", {("321", "21"), ("4321", "22"), ("4422", "321")}),
    ])
    def test_minimal_non_multiplicity_free_pairs(self, family, minimal):
        # the pairs with a coefficient of at least 2 that no step reaches from such a pair
        maxima = box_maxima(family, "hive", 4, 4)
        above = {s for pair, steps in box_steps(family, 4, 4).items() if maxima[pair] > 1 for s in steps}
        found = {pair for pair, top in maxima.items() if top > 1 and pair not in above}
        assert {(digits(a), digits(b)) for a, b in found} == minimal


def stretch(p, k):
    return Partition([k * x for x in p.parts])


class TestStretching:
    """Theorems on c(N) = c_{N mu, N nu}^{N lam}, checking hive counts beyond tableaux."""

    def test_polynomial_in_the_stretch(self):
        # Derksen-Weyman, Rassart: c(N) is a polynomial in N of degree at most
        # the hive polytope's dimension, (n - 1)(n - 2) / 2 = 10 on side n = 6
        lam, mu, nu = P("6,5,4,3,1,1"), P("4,3,2,1"), P("4,3,2,1")
        counts = [
            lr_coefficient_hive(stretch(lam, k), stretch(mu, k), stretch(nu, k)) for k in range(12)
        ]
        assert counts[:7] == [1, 18, 160, 880, 3510, 11196, 30348]
        # the interpolant through N = 0..10, in Lagrange form, at N = 11
        predicted = sum(
            counts[i] * prod(Fraction(11 - j, i - j) for j in range(11) if j != i) for i in range(11)
        )
        assert predicted == counts[11] == 1_079_728

    def test_fulton_over_the_3x3_box(self):
        # Knutson-Tao-Woodward: c = 1 keeps c(N) = 1; stretching is injective
        # on hive points, so c(N) >= c always
        terms = ones = 0
        for mu, nu in itertools.product(partitions_in_box(3, 3), repeat=2):
            for lam, c in product_expansion(mu, nu).terms():
                terms += 1
                ones += c == 1
                for k in (2, 3):
                    got = lr_coefficient_hive(stretch(lam, k), stretch(mu, k), stretch(nu, k))
                    assert got == 1 if c == 1 else got >= c, (lam, mu, nu, k, got)
        assert (terms, ones) == (3674, 3295)


class TestFrontierCount:
    """The row-by-row frontier count against the DFS and the tableau rule."""

    @pytest.mark.parametrize(
        "triples",
        [lambda: product_triples(3, 3), lambda: basic_skew_triples(4, 4)],
        ids=["products-3x3", "skews-4x4"],
    )
    def test_matches_both_oracles(self, triples):
        seen = nonzero = 0
        for lam, mu, nu in triples():
            by_rows = count_on_side(lam, mu, nu, tight_side(lam, mu, nu))
            assert by_rows == len(enumerate_lr_hives(lam, mu, nu, default_hive_side(lam, mu, nu))), (lam, mu, nu)
            assert by_rows == lr_tableau_count(lam, mu, nu), (lam, mu, nu)
            seen += 1
            nonzero += by_rows > 0
        assert nonzero > 100 and seen > nonzero

    def test_independent_of_side(self):
        for lam, mu, nu in all_triples(8):
            k = tight_side(lam, mu, nu)
            counts = {count_on_side(lam, mu, nu, n) for n in (k, k + 1, k + 2)}
            assert len(counts) == 1, (lam, mu, nu)

    def test_stretched_coefficient(self):
        lam, mu, nu = P("6,5,4,3,1,1"), P("4,3,2,1"), P("4,3,2,1")
        assert lr_coefficient_hive(lam, mu, nu) == 18
        six = lambda p: Partition([6 * x for x in p.parts])
        assert lr_coefficient_hive(six(lam), six(mu), six(nu)) == 30348

    def test_deep_column_triangle(self):
        # 1035 interior vertices: deeper than the default recursion limit
        ones = lambda k: Partition([1] * k)
        assert lr_coefficient_hive(ones(47), ones(23), ones(24)) == 1

    def test_deep_column_enumeration(self):
        ones = lambda k: Partition([1] * k)
        lam, mu, nu = ones(47), ones(23), ones(24)
        hives = enumerate_lr_hives(lam, mu, nu)
        assert len(hives) == 1
        assert is_valid_lr_hive(hives[0], HiveBoundary(47, lam, mu, nu))

    def test_deep_column_cli(self, capsys, monkeypatch):
        monkeypatch.setenv("HIVE_LR_MAX_WEIGHT", "47")
        code = main(["hives", "--lambda", "1^47", "--mu", "1^23", "--nu", "1^24"])
        assert (code, capsys.readouterr().out) == (0, "1\n")


class TestFreeSideWalk:
    """One walk with the output side free, on the sides where the plan is smallest."""

    @pytest.mark.parametrize(
        "mu, nu, terms",
        [
            ("0", "0", {(): 1}),
            ("0", "3", {(3,): 1}),
            ("3", "0", {(3,): 1}),
            ("1", "1", {(2,): 1, (1, 1): 1}),
            ("2", "1", {(3,): 1, (2, 1): 1}),
        ],
    )
    def test_products_on_sides_0_to_2(self, mu, nu, terms):
        assert {p.parts: c for p, c in product_expansion(P(mu), P(nu), "hive").terms()} == terms

    @pytest.mark.parametrize(
        "lam, mu, terms",
        [
            ("0", "0", {(): 1}),
            ("3", "3", {(): 1}),
            ("1", "0", {(1,): 1}),
            ("2,1", "1", {(2,): 1, (1, 1): 1}),
            ("2,2", "1", {(2, 1): 1}),
        ],
    )
    def test_skews_on_sides_0_to_2(self, lam, mu, terms):
        states, parts = lr_expansion_states(P(lam), P(mu))
        assert {parts(labels): c for labels, c in states.items()} == terms

    # Free sides of 17 or more inner vertices, walked as two segments, against the tableau rule.
    @pytest.mark.parametrize("mu, nu", [("1^9", "1^9"), ("2^9", "1^10"), ("3^5,1^5", "2^8")])
    def test_products_past_one_segment(self, mu, nu):
        mu, nu = P(mu), P(nu)
        assert mu.length + nu.length - 1 > _ROW_LIMIT
        assert product_expansion(mu, nu, "hive") == product_expansion(mu, nu, "tableau")

    @pytest.mark.parametrize("lam, mu", [("1^18", "1^9"), ("2^18", "1^9"), ("3^6,2^6,1^6", "1^4")])
    def test_skews_past_one_segment(self, lam, mu):
        shape = SkewShape(P(lam), P(mu))
        assert shape.outer.length - 1 > _ROW_LIMIT
        assert skew_expansion(shape, "hive") == skew_expansion(shape, "tableau")


class TestBruteForce:
    """Enumeration against every interior labelling, filtered by validation alone."""

    def brute_force(self, lam, mu, nu, n):
        """Every valid hive, with the interior labelled lexicographically in row-major order."""
        boundary = HiveBoundary(n, lam, mu, nu)
        rows = [[0] * (n + 1 - i) for i in range(n + 1)]
        for (i, j), label in boundary.vertex_labels().items():
            rows[i][j] = label
        interior = [(i, j) for i in range(1, n) for j in range(1, n - i)]
        hives = []
        for labels in itertools.product(range(lam.weight + 1), repeat=len(interior)):
            for (i, j), label in zip(interior, labels):
                rows[i][j] = label
            hive = Hive(n, rows)
            if is_valid_lr_hive(hive, boundary):
                hives.append(hive)
        return hives

    def test_small_triangles(self):
        checked = 0
        for lam, mu, nu in all_triples(5):
            n = default_hive_side(lam, mu, nu)
            if n > 4:
                continue
            expected = self.brute_force(lam, mu, nu, n)
            assert enumerate_lr_hives(lam, mu, nu, n) == expected, (lam, mu, nu)
            checked += 1
        assert checked == 323

    def test_order_of_two_hives(self):
        # every coefficient up to weight 5 is at most 1, so only these show the order
        for lam, mu, nu in ((P("3,2,1"), P("2,1"), P("2,1")), (P("4,3,2,1"), P("2,2"), P("3,2,1"))):
            expected = self.brute_force(lam, mu, nu, 4)
            assert len(expected) == 2
            assert enumerate_lr_hives(lam, mu, nu, 4) == expected


class TestPlanCoverage:
    def test_free_side_is_the_last_row(self):
        # the nu side's inner vertices, right to left
        for n in range(2, 11):
            plan = _plan(n, True, False)
            assert tuple(step.vid for step in plan.rows[-1][0]) == plan.sides[1][1:-1][::-1]

    @pytest.mark.parametrize("free", (False, True), ids=("count", "expand"))
    def test_segments_for_sides_1_to_24(self, free):
        for n in range(1, 25):
            plan = _plan(n, free, False)
            _check_plan(plan)
            assert all(0 < len(row_steps) <= _ROW_LIMIT for row_steps, _ in plan.rows), n

    def test_free_side_rows_share_their_compiles(self):
        # the rows name labels by role, so rows of one shape on different
        # sides differ only in the boundary ids their factory binds
        _plan.cache_clear()
        _row_factory.cache_clear()
        plans = [_plan(n, True, False) for n in range(1, 9)]
        assert sum(len(plan.rows) for plan in plans) == 28
        assert _row_factory.cache_info().currsize == 12
        assert len({walk.__code__ for plan in plans for walk in plan.walkers}) == 12

    def test_kept_plans_to_side_19(self):
        # test_segments_for_sides_1_to_24 covers the plans that keep nothing;
        # side 19 walks its longest row as two segments
        for n in range(1, 20):
            plan = _plan(n, False, True)
            _check_plan(plan)
            assert len(plan.walkers) == len(plan.rows)

    @staticmethod
    def with_row(plan, r, row):
        return plan._replace(rows=plan.rows[:r] + (row,) + plan.rows[r + 1 :])

    def test_rejects_a_dropped_inequality(self):
        for free, keep in PLAN_KINDS.values():
            plan = _plan(5, free, keep)
            r, t = next(
                (r, t)
                for r, (row_steps, _) in enumerate(plan.rows)
                for t, step in enumerate(row_steps)
                if step.lower_triples
            )
            row_steps, key = plan.rows[r]
            step = row_steps[t]
            weakened = step._replace(lower_triples=step.lower_triples[1:])
            row = (row_steps[:t] + (weakened,) + row_steps[t + 1 :], key)
            with pytest.raises(AssertionError):
                _check_plan(self.with_row(plan, r, row))

    def test_rejects_a_short_frontier(self):
        for free, keep in PLAN_KINDS.values():
            plan = _plan(5, free, keep)
            _check_plan(plan)
            # a key without a label the next row reads
            r, u = next(
                (r, u)
                for r, ((_, key), (next_steps, _)) in enumerate(itertools.pairwise(plan.rows))
                for u in key
                if any(u in step.reads() for step in next_steps)
            )
            row_steps, key = plan.rows[r]
            with pytest.raises(AssertionError):
                _check_plan(self.with_row(plan, r, (row_steps, tuple(v for v in key if v != u))))
            # the last key short of a label the result is read from, or, for a
            # count, holding one
            row_steps, key = plan.rows[-1]
            wrong = key[:-1] if key else (row_steps[-1].vid,)
            with pytest.raises(AssertionError):
                _check_plan(self.with_row(plan, len(plan.rows) - 1, (row_steps, wrong)))

    def test_rejects_a_key_ahead_of_its_row(self):
        for free, keep in PLAN_KINDS.values():
            plan = _plan(5, free, keep)
            (first, key), (second, _) = plan.rows[:2]
            with pytest.raises(AssertionError):
                _check_plan(self.with_row(plan, 0, (first, key + (second[-1].vid,))))


def reference_row(row_steps, carried, key, frontier, vals, cap):
    """One row walked from its steps, one range(max(...), min(...) + 1) loop each.

    Returns the states reached and the number of visits whose bounds cross.
    """
    vals = list(vals)
    reached = {}
    crossed = 0

    def walk(t, mult):
        nonlocal crossed
        if t == len(row_steps):
            k = tuple(vals[u] for u in key)
            reached[k] = reached.get(k, 0) + mult
            return
        step = row_steps[t]
        lo = max(
            0,
            *(vals[u] for u in step.lower_singles),
            *(vals[x] + vals[y] - vals[z] for x, y, z in step.lower_triples),
        )
        hi = min(
            cap,
            *(vals[u] for u in step.upper_singles),
            *(vals[x] + vals[y] - vals[z] for x, y, z in step.upper_triples),
        )
        crossed += lo > hi
        for vals[step.vid] in range(lo, hi + 1):
            walk(t + 1, mult)

    for labels, mult in frontier.items():
        for u, label in zip(carried, labels):
            vals[u] = label
        walk(0, mult)
    return reached, crossed


class TestCompiledRows:
    """Every compiled row against reference_row, on seeded random boundaries."""

    @staticmethod
    def random_partition(rng, weight, length):
        parts = [0] * length
        for _ in range(weight):
            parts[rng.randrange(length)] += 1
        return Partition(sorted(parts, reverse=True))

    @pytest.mark.parametrize("free, keep", PLAN_KINDS.values(), ids=PLAN_KINDS)
    def test_rows_match_the_reference(self, free, keep):
        rng = random.Random(14)
        crossed = walked = 0
        # side 19 splits a row (or the free side) into two segments
        for n in (*range(1, 10), _ROW_LIMIT + 3):
            plan = _plan(n, free, keep)
            for _ in range(6):
                mu = self.random_partition(rng, rng.randint(0, n + 2), n)
                nu = self.random_partition(rng, rng.randint(0, n + 2), n)
                lam = self.random_partition(rng, mu.weight + nu.weight, n)
                if free:
                    nu = Partition([nu.weight])
                vals = [0] * len(_vertex_ids(n))
                _fill_boundary(vals, plan.sides, lam, mu, nu)
                frontier, carried = {(): 1}, ()
                for (row_steps, key), walk in zip(plan.rows, plan.walkers):
                    assert not {"range", "max", "min"} & set(walk.__code__.co_names)
                    expected, dead = reference_row(row_steps, carried, key, frontier, vals, lam.weight)
                    frontier, carried = walk(frontier, vals, lam.weight), key
                    assert list(frontier.items()) == list(expected.items()), (n, lam, mu, nu)
                    crossed += dead
                walked += bool(frontier)
        # the walks reach both dead ends and final states
        assert crossed and walked
