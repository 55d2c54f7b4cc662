import hashlib
from itertools import product as iproduct

import pytest

from lrhive.classify import (
    LIFTED_WITNESS_CASES,
    PRODUCT_WITNESS_CASES,
    SKEW_WITNESS_CASES,
    lifted_witness,
    product_witness,
    skew_witness,
)
from lrhive.partitions import parse_partition

P = parse_partition

CASE_PARAMS = {
    "Q1": "abcd",
    "Q2": "abcd",
    "Q3": "abc",
    "T1i": "abcde",
    "T1ii": "abcde",
    "T2i": "abcde",
    "T2ii": "abcde",
    "T3i": "abcd",
    "T3ii": "abcd",
    "U1i": "abcde",
    "U1ii": "abcde",
    "U2i": "abcde",
    "U2ii": "abcde",
    "U3i": "abcd",
    "U3ii": "abcd",
}

BUILDERS = {"Q": product_witness, "T": skew_witness, "U": lifted_witness}

# SHA-256 of every outcome of test_every_outcome_over_small_parameters.
OUTCOMES_DIGEST = "f05f5abd5c90f347c86fd6e57c6b5d5314164279f3632ac984942f3891fe440d"


def grid_witnesses(case, max_param):
    """Every witness of the case whose parameters are all at most max_param."""
    names = CASE_PARAMS[case]
    build = BUILDERS[case[0]]
    out = []
    for vals in iproduct(range(1, max_param + 1), repeat=len(names)):
        try:
            out.append(build(case, **dict(zip(names, vals))))
        except ValueError:
            continue
    return out


class TestProductWitnesses:
    def test_q1_classic(self):
        w = product_witness("Q1", a=2, b=1, c=2, d=1)
        assert w.lam == P("3,2,1") == w.constructed
        assert w.mu == P("2,1") and w.nu == P("2,1")
        assert w.verify() == 2 and w.holds(w.verify())

    def test_q2_example(self):
        w = product_witness("Q2", a=3, b=2, c=1, d=2)
        assert w.lam == P("4,3,2,1")
        assert w.verify() == 2

    def test_q3_example(self):
        w = product_witness("Q3", a=4, b=2, c=3)
        assert w.lam == P("6,5,4,3,2,1")
        assert w.verify() == 2

    @pytest.mark.parametrize(
        "case,params",
        [
            ("Q1", dict(a=1, b=1, c=2, d=1)),
            ("Q2", dict(a=3, b=2, c=1, d=1)),
            ("Q3", dict(a=3, b=2, c=3)),
        ],
    )
    def test_precondition_rejection(self, case, params):
        with pytest.raises(ValueError):
            product_witness(case, **params)

    def test_parameter_names_checked(self):
        with pytest.raises(ValueError):
            product_witness("Q3", a=4, b=2, c=3, d=1)

    @pytest.mark.parametrize("value", [2.9, "3", None])
    def test_non_integer_parameter_rejected(self, value):
        # 2.9 is not truncated to 2, nor "3" read as 3
        with pytest.raises(ValueError, match=f"^Q1 parameter a must be an integer, got {value!r}$"):
            product_witness("Q1", a=value, b=1, c=2, d=1)


class TestSkewWitnesses:
    def test_t1_overlap_point(self):
        wi = skew_witness("T1i", a=3, b=2, c=1, d=2, e=1)
        wii = skew_witness("T1ii", a=3, b=2, c=1, d=2, e=1)
        assert wi.nu == wii.nu == P("2,1")
        assert wi.lam == P("3,2,1") and wi.mu == P("2,1")
        assert wi.verify() == 2 and wii.verify() == 2

    def test_t2_overlap_point(self):
        wi = skew_witness("T2i", a=4, b=3, c=2, d=1, e=2)
        wii = skew_witness("T2ii", a=4, b=3, c=2, d=1, e=2)
        assert wi.nu == wii.nu == P("3,2,1")
        assert wi.verify() == 2 and wii.verify() == 2

    def test_t3_overlap_point(self):
        wi = skew_witness("T3i", a=6, b=4, c=2, d=3)
        wii = skew_witness("T3ii", a=6, b=4, c=2, d=3)
        assert wi.nu == wii.nu == P("5,4,3,2,1")
        assert wi.lam == P("6,6,4,4,2,2") and wi.mu == P("3,3,3")
        assert wi.verify() == 2 and wii.verify() == 2

    def test_parenthesized_case_names(self):
        assert skew_witness("T1(i)", a=3, b=2, c=1, d=2, e=1).case_label == "T1i"

    def test_chain_rejection(self):
        with pytest.raises(ValueError):
            skew_witness("T1i", a=3, b=2, c=1, d=3, e=1)  # c+1 >= d fails
        with pytest.raises(ValueError):
            skew_witness("T2i", a=4, b=3, c=2, d=1, e=1)  # e > 1 fails
        with pytest.raises(ValueError):
            skew_witness("T3ii", a=6, b=4, c=1, d=2)  # c+1 > 2 fails


class TestLiftedWitnesses:
    def test_u1i_unequal_branch(self):
        w = lifted_witness("U1i", a=4, b=3, c=1, d=2, e=1)
        assert w.lam == P("4,4,3,1") and w.mu == P("2,1")
        assert w.nu == P("4,3,2")
        assert w.verify() >= 2 and w.holds(w.verify())

    def test_u1i_equal_branch(self):
        # b == e exercises the column-then-row lift
        w = lifted_witness("U1i", a=5, b=2, c=1, d=3, e=2)
        assert w.verify() >= 2

    def test_u2ii_zero_lift(self):
        w = lifted_witness("U2ii", a=5, b=4, c=3, d=2, e=2)
        assert w.lam == P("5,4,3,2,2") and w.mu == P("2,2,2")
        assert w.nu == P("4,3,2,1")  # rho picks up a zero part, so nu = rho
        assert w.verify() >= 2

    def test_u3ii_valid_instance(self):
        w = lifted_witness("U3ii", a=7, b=5, c=3, d=3)
        assert w.lam == P("7,7,5,5,3,3,3") and w.mu == P("3,3,3,3")
        assert w.verify() >= 2

    def test_u3ii_rejects_underconstrained_params(self):
        # b > c + 1 and b > d + 1 both fail for these values
        with pytest.raises(ValueError):
            lifted_witness("U3ii", a=6, b=4, c=3, d=3)

    def test_non_basic_rejected(self):
        # e > b leaves empty columns in (a, a, b, c)/(d, e)
        with pytest.raises(ValueError, match="non-basic"):
            lifted_witness("U1i", a=9, b=2, c=1, d=8, e=7)


class TestGrids:
    @pytest.mark.parametrize("case", PRODUCT_WITNESS_CASES + SKEW_WITNESS_CASES)
    def test_exact_two_grid(self, case):
        witnesses = grid_witnesses(case, 7)
        assert witnesses
        for w in witnesses:
            assert w.expected == "exactly 2"
            assert w.verify() == 2, (case, w)

    @pytest.mark.parametrize("case", LIFTED_WITNESS_CASES)
    def test_at_least_two_grid(self, case):
        witnesses = grid_witnesses(case, 7)
        assert witnesses
        for w in witnesses:
            assert w.expected == "at least 2"
            assert w.verify() >= 2, (case, w)

    def test_equal_parameter_branches_covered(self):
        u1i = grid_witnesses("U1i", 7)
        assert any(w.mu and w.lam.parts[2] == w.mu.parts[1] for w in u1i)


def test_every_outcome_over_small_parameters():
    """The witness or the exact error of every case, each parameter in 0..5."""
    h = hashlib.sha256()
    for case, names in CASE_PARAMS.items():
        for vals in iproduct(range(6), repeat=len(names)):
            try:
                w = BUILDERS[case[0]](case, **dict(zip(names, vals)))
                out = f"{w.lam} {w.mu} {w.nu} {w.constructed} {w.expected}"
            except ValueError as exc:
                out = str(exc)
            h.update(f"{case} {vals} {out}\n".encode())
    assert h.hexdigest() == OUTCOMES_DIGEST
