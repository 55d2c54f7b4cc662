import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from lrhive.classify import gty_mf, stembridge_mf
from lrhive.expansions import (
    Expansion,
    duality_check,
    lr_coefficient,
    max_multiplicity,
    product_expansion,
    skew_expansion,
)
from lrhive.hives import lr_coefficient_hive
from lrhive.partitions import (
    Partition,
    bounded_partitions,
    complement,
    contains,
    parse_partition,
    partitions_in_box,
    subpartitions,
)
from lrhive import hives, tableaux
from lrhive.skew import SkewShape, format_skew_shape, parse_skew_shape, star
from lrhive.sweep import verify_sweep
from lrhive.tableaux import lr_tableau_count

P = parse_partition
S = parse_skew_shape


def as_parts(expansion):
    return {p.parts: c for p, c in expansion.terms()}


class TestExpansionType:
    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            Expansion({P("2"): 0})

    def test_rejects_mixed_weights(self):
        with pytest.raises(ValueError):
            Expansion({P("2"): 1, P("1"): 1})

    def test_ordering_decreasing_lex(self):
        e = product_expansion(P("2,1"), P("2,1"))
        assert [p.parts for p, _ in e.terms()] == [
            (4, 2),
            (4, 1, 1),
            (3, 3),
            (3, 2, 1),
            (3, 1, 1, 1),
            (2, 2, 2),
            (2, 2, 1, 1),
        ]

    def test_lookup_default_zero(self):
        e = product_expansion(P("1"), P("1"))
        assert e[P("3")] == 0

    def test_equality_with_dict(self):
        assert product_expansion(P("1"), P("1")) == {P("2"): 1, P("1,1"): 1}


class TestProduct:
    def test_pieri_smallest(self):
        assert as_parts(product_expansion(P("1"), P("1"))) == {(2,): 1, (1, 1): 1}

    def test_contains_321_with_multiplicity(self):
        assert product_expansion(P("2,1"), P("2,1"))[P("3,2,1")] == 2

    def test_full_square_of_21(self):
        assert as_parts(product_expansion(P("2,1"), P("2,1"))) == {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        }

    def test_zero_factor(self):
        assert as_parts(product_expansion(Partition(), P("3,1"))) == {(3, 1): 1}
        assert as_parts(product_expansion(Partition(), Partition())) == {(): 1}

    def test_methods_agree_on_examples(self):
        examples = (
            (P("2,1"), P("2,1")),
            (P("3,2"), P("2,2")),
            (P("2,2"), P("3,3,1")),
            (Partition(), P("3,2,1")),
            (P("3,2,1"), Partition()),
        )
        for mu, nu in examples:
            assert product_expansion(mu, nu, method="hive") == product_expansion(
                mu, nu, method="tableau"
            )


class TestSkew:
    def test_staircase(self):
        assert as_parts(skew_expansion(S("3,2,1/2,1"))) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}

    def test_seven_terms(self):
        assert as_parts(skew_expansion(S("4,3,2,1/2,2"))) == {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        }

    def test_box_complement_specialization(self):
        for m, n in ((3, 2), (4, 4), (2, 5)):
            box = Partition([m] * n)
            for mu in (Partition(), P("1"), P("2,1") if m >= 2 and n >= 2 else P("1")):
                if not contains(mu, box):
                    continue
                e = skew_expansion(SkewShape(box, mu))
                assert as_parts(e) == {complement(mu, m, n).parts: 1}

    def test_empty_shape(self):
        assert as_parts(skew_expansion(S("0/0"))) == {(): 1}


class TestDuality:
    def test_both_sides_two(self):
        assert duality_check(P("3,2,1"), P("2,1"), P("2,1"))

    def test_weight_mismatch_both_zero(self):
        assert duality_check(P("3,1"), P("1"), P("1"))

    def test_paper_term(self):
        assert duality_check(P("4,3,2,1"), P("2,2"), P("2,2,1,1"))

    def test_mu_not_contained(self):
        assert duality_check(P("2,2"), P("3"), P("1"))


class TestEngineAgreement:
    def test_products_exhaustive_weight_9(self):
        parts = {w: list(bounded_partitions(w)) for w in range(10)}
        for wm in range(10):
            for mu in parts[wm]:
                for wn in range(10 - wm):
                    for nu in parts[wn]:
                        assert product_expansion(mu, nu, method="hive") == product_expansion(
                            mu, nu, method="tableau"
                        ), (mu, nu)

    def test_skews_exhaustive_weight_9(self):
        for w in range(10):
            for lam in bounded_partitions(w):
                for mu in subpartitions(lam):
                    s = SkewShape(lam, mu)
                    assert skew_expansion(s, method="hive") == skew_expansion(
                        s, method="tableau"
                    ), (lam, mu)

    def test_basic_skews_5x5(self):
        # term by term on every basic shape of the 5x5 box, weights up to 25
        shapes = 0
        for lam in partitions_in_box(5, 5):
            for mu in subpartitions(lam):
                s = SkewShape(lam, mu)
                if s.is_basic():
                    assert skew_expansion(s, method="hive") == skew_expansion(s, method="tableau"), s
                    shapes += 1
        assert shapes == 5097

    def test_products_through_mu_star_nu_3x3(self):
        # the tableau method expands the skew shape mu*nu; weights reach 18 here
        box = partitions_in_box(3, 3)
        for mu in box:
            for nu in box:
                assert product_expansion(mu, nu, method="tableau") == product_expansion(
                    mu, nu, method="hive"
                ), (mu, nu)


BOX_4X4 = partitions_in_box(4, 4)


@st.composite
def skew_shapes_4x4(draw):
    lam = draw(st.sampled_from(BOX_4X4))
    return SkewShape(lam, draw(st.sampled_from(list(subpartitions(lam)))))


@st.composite
def triples(draw):
    shape = draw(skew_shapes_4x4())
    nu = draw(st.sampled_from(list(bounded_partitions(shape.size, Partition([shape.size] * 4)))))
    return shape.outer, shape.inner, nu


class TestEngineProperties:
    @settings(deadline=None, max_examples=300)
    @given(triples())
    def test_hive_count_equals_tableau_count(self, triple):
        assert lr_coefficient_hive(*triple) == lr_tableau_count(*triple)

    @settings(deadline=None, max_examples=150)
    @given(skew_shapes_4x4())
    def test_skew_expansions_agree(self, shape):
        assert skew_expansion(shape, "tableau") == skew_expansion(shape, "hive")


def per_candidate(weight, rectangle, inside, count):
    """The expansion one hive count at a time, over the partitions of weight in the rectangle."""
    return Expansion({p: c for p in bounded_partitions(weight, rectangle) if inside(p) and (c := count(p))})


def per_candidate_product(mu, nu):
    width = (mu.parts[0] if mu else 0) + (nu.parts[0] if nu else 0)
    return per_candidate(
        mu.weight + nu.weight,
        Partition([width] * (mu.length + nu.length)),
        lambda lam: contains(mu, lam) and contains(nu, lam),
        lambda lam: lr_coefficient_hive(lam, mu, nu),
    )


def per_candidate_skew(shape):
    lam, mu = shape.outer, shape.inner
    return per_candidate(
        shape.size,
        Partition([lam.parts[0] if lam else 0] * lam.length),
        lambda nu: contains(nu, lam),
        lambda nu: lr_coefficient_hive(lam, mu, nu),
    )


class TestHiveWalkAgainstPerCandidate:
    """One hive walk with the output side free against one count per candidate term."""

    def test_products_3x3(self):
        box = partitions_in_box(3, 3)
        for mu in box:
            for nu in box:
                assert product_expansion(mu, nu, "hive") == per_candidate_product(mu, nu), (mu, nu)

    def test_skews_4x4(self):
        shapes = 0
        for lam in BOX_4X4:
            for mu in subpartitions(lam):
                shape = SkewShape(lam, mu)
                assert skew_expansion(shape, "hive") == per_candidate_skew(shape), shape
                shapes += 1
        assert shapes == 1764

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(BOX_4X4), st.sampled_from(BOX_4X4))
    def test_random_products_4x4(self, mu, nu):
        assert product_expansion(mu, nu, "hive") == per_candidate_product(mu, nu)


class TestSymmetryTermByTerm:
    def test_commutativity_and_conjugation(self):
        from lrhive.partitions import conjugate

        box = partitions_in_box(3, 2)
        for mu in box:
            for nu in box:
                e = product_expansion(mu, nu)
                assert e == product_expansion(nu, mu)
                conj = product_expansion(conjugate(mu), conjugate(nu))
                assert {conjugate(p): c for p, c in e.terms()} == dict(conj.terms())


class TestSupportConstraints:
    def test_product_terms_obey_support(self):
        for mu in partitions_in_box(3, 3):
            for nu in partitions_in_box(3, 3):
                for lam, c in product_expansion(mu, nu).terms():
                    assert c >= 1
                    assert lam.weight == mu.weight + nu.weight
                    assert max(mu.length, nu.length) <= lam.length <= mu.length + nu.length
                    assert contains(mu, lam) and contains(nu, lam)

    def test_skew_terms_obey_support(self):
        for lam in partitions_in_box(3, 3):
            for mu in subpartitions(lam):
                for nu, c in skew_expansion(SkewShape(lam, mu)).terms():
                    assert c >= 1
                    assert nu.weight == lam.weight - mu.weight
                    assert nu.length <= lam.length
                    assert contains(nu, lam)


class TestMaxMultiplicity:
    def test_examples(self):
        assert skew_expansion(S("3,2,1/2,1")).max_multiplicity() == 2
        assert product_expansion(P("1"), P("1")).max_multiplicity() == 1
        assert skew_expansion(S("6^2,4^2,2^2/3^3")).max_multiplicity() == 2
        assert Expansion().max_multiplicity() == 0


class TestSweepsBuildNoTerm:
    """max_multiplicity, and so every sweep, reads the walk's states and never their parts."""

    @pytest.fixture
    def no_parts(self, monkeypatch):
        for engine in (hives, tableaux):

            def states_only(lam, mu, walk=engine.lr_expansion_states):
                def parts(state):
                    raise AssertionError(f"parts of {state} read")

                return walk(lam, mu)[0], parts

            monkeypatch.setattr(engine, "lr_expansion_states", states_only)

    @pytest.mark.parametrize("method", ["hive", "tableau"])
    def test_max_multiplicity_and_sweeps(self, no_parts, method):
        with pytest.raises(AssertionError, match="parts of"):
            skew_expansion(S("3,2,1/2,1"), method)
        assert max_multiplicity(S("3,2,1/2,1"), method) == 2
        assert max_multiplicity(S("0/0"), method) == 1
        assert verify_sweep("products", (3, 3), method=method).disagree == 0
        assert verify_sweep("skews", (4, 4), method=method).disagree == 0


class TestMultiply:
    def test_singletons(self):
        e1 = Expansion({P("1"): 1})
        sq = e1.multiply(e1)
        assert as_parts(sq) == {(2,): 1, (1, 1): 1}

    def test_disconnected_factorization_of_staircase(self):
        # the three corner cells of 321/21 multiply out to its expansion
        cell = Expansion({P("1"): 1})
        cube = cell.multiply(cell).multiply(cell)
        assert cube == skew_expansion(S("3,2,1/2,1"))


class TestDispatch:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            lr_coefficient(P("2"), P("1"), P("1"), method="magic")
        with pytest.raises(ValueError):
            product_expansion(P("1"), P("1"), method="magic")
        with pytest.raises(ValueError):
            skew_expansion(S("2,1/1"), method="magic")


# SHA-256 of the terms, in order, of every product in the 4x4 box (hives) and
# of every lam/mu in the 5x5 box (both engines), with the case labels of each
# product and of each basic shape.  Each expansion's maximum multiplicity is
# also read off its shape's walk, as sweeps read it.
TERMS_DIGEST = "8491a2861f62a500fa6025739429bddcaccb0cef55b872c4ec616add8eeafe0e"


def test_terms_over_whole_boxes():
    h = hashlib.sha256()

    def put(*names, expansion, shape, method, cases):
        assert max_multiplicity(shape, method) == expansion.max_multiplicity(), names
        terms = " ".join(f"{p}:{c}" for p, c in expansion.terms())
        h.update(f"{' '.join(names)} | {terms} | {cases}\n".encode())

    box = partitions_in_box(4, 4)
    for mu in box:
        for nu in box:
            cases = ",".join(stembridge_mf(mu, nu).sorted_cases())
            shape = star(SkewShape(mu), SkewShape(nu))
            put(str(mu), str(nu), expansion=product_expansion(mu, nu), shape=shape, method="hive", cases=cases)
    for lam in partitions_in_box(5, 5):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            cases = ",".join(gty_mf(shape).sorted_cases()) if shape.is_basic() else "not basic"
            for method in ("hive", "tableau"):
                expansion = skew_expansion(shape, method)
                put(format_skew_shape(shape), method, expansion=expansion, shape=shape, method=method, cases=cases)
    assert h.hexdigest() == TERMS_DIGEST
