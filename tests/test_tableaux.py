from itertools import product as iproduct

import pytest

from lrhive.partitions import Partition, bounded_partitions, contains, parse_partition, subpartitions
from lrhive.skew import SkewShape
from lrhive.tableaux import (
    LRTableau,
    enumerate_lr_tableaux,
    is_lattice_word,
    is_valid_lr_tableau,
    lr_expansion_states,
    lr_tableau_count,
)

P = parse_partition


def brute_fillings(lam, mu, nu):
    """Try every assignment of 1..len(nu) to the cells; keep the valid ones.

    All three conditions are spelled out from scratch here so this stays an
    oracle independent of the library's incremental search.
    """
    if not contains(mu, lam):
        return []
    cells = SkewShape(lam, mu).cells()
    if len(cells) != nu.weight:
        return []
    k = nu.length
    if not cells:
        return [{}]
    good = []
    for combo in iproduct(range(1, k + 1), repeat=len(cells)):
        entries = dict(zip(cells, combo))
        # rows weakly increase
        if any(
            (r, c + 1) in entries and entries[(r, c)] > entries[(r, c + 1)]
            for (r, c) in entries
        ):
            continue
        # columns strictly increase
        if any(
            (r + 1, c) in entries and entries[(r, c)] >= entries[(r + 1, c)]
            for (r, c) in entries
        ):
            continue
        # content
        if any(sum(1 for v in combo if v == i) != nu.padded(k)[i - 1] for i in range(1, k + 1)):
            continue
        # lattice on the reverse reading word
        word = []
        for r in range(1, lam.length + 1):
            row = sorted((c for (rr, c) in entries if rr == r), reverse=True)
            word.extend(entries[(r, c)] for c in row)
        counts = {}
        ok = True
        for v in word:
            counts[v] = counts.get(v, 0) + 1
            if v > 1 and counts[v] > counts.get(v - 1, 0):
                ok = False
                break
        if ok:
            good.append(entries)
    return good


class TestAgainstBruteForce:
    def test_classic_two_tableaux(self):
        expected = brute_fillings(P("3,2,1"), P("2,1"), P("2,1"))
        assert sorted(tuple(sorted(e.items())) for e in expected) == [
            (((1, 3), 1), ((2, 2), 1), ((3, 1), 2)),
            (((1, 3), 1), ((2, 2), 2), ((3, 1), 1)),
        ]
        got = list(enumerate_lr_tableaux(P("3,2,1"), P("2,1"), P("2,1")))
        assert sorted(tuple(sorted(t.entries.items())) for t in got) == sorted(
            tuple(sorted(e.items())) for e in expected
        )

    def test_small_count(self):
        assert len(brute_fillings(P("2,2"), P("1"), P("2,1"))) == 1
        assert lr_tableau_count(P("2,2"), P("1"), P("2,1")) == 1

    def test_exhaustive_small(self):
        for w in range(7):
            for lam in bounded_partitions(w):
                for mu in subpartitions(lam):
                    for nu in bounded_partitions(w - mu.weight, Partition([w] * 4)):
                        assert lr_tableau_count(lam, mu, nu) == len(
                            brute_fillings(lam, mu, nu)
                        ), (lam, mu, nu)


class TestCounts:
    def test_classic(self):
        assert lr_tableau_count(P("3,2,1"), P("2,1"), P("2,1")) == 2

    def test_coefficient_one_term(self):
        assert lr_tableau_count(P("4,3,2,1"), P("2,2"), P("3,3")) == 1

    def test_weight_mismatch(self):
        assert lr_tableau_count(P("2,1"), P("2,1"), P("1")) == 0

    def test_mu_not_contained(self):
        assert lr_tableau_count(P("2,1"), P("3"), P("0")) == 0

    def test_single_row(self):
        assert lr_tableau_count(P("5"), Partition(), P("5")) == 1
        only = list(enumerate_lr_tableaux(P("5"), Partition(), P("5")))
        assert only[0].entries == {(1, c): 1 for c in range(1, 6)}

    def test_empty_triple(self):
        assert lr_tableau_count(Partition(), Partition(), Partition()) == 1


class TestInvariants:
    def test_enumerated_tableaux_revalidate(self):
        triples = [
            (P("3,2,1"), P("2,1"), P("2,1")),
            (P("4,3,2,1"), P("2,2"), P("3,2,1")),
            (P("4,2"), P("2,1"), P("2,1")),
            (P("6,6,4,4,2,2"), P("3,3,3"), P("5,4,3,2,1")),
        ]
        for lam, mu, nu in triples:
            tableaux = list(enumerate_lr_tableaux(lam, mu, nu))
            assert tableaux
            for t in tableaux:
                assert is_valid_lr_tableau(t, nu)

    def test_named_tuple_with_dict_entries(self):
        t = next(enumerate_lr_tableaux(P("3,2,1"), P("2,1"), P("2,1")))
        assert isinstance(t, tuple) and isinstance(t.entries, dict)
        same = LRTableau(t.shape, list(t.entries.items()))
        assert same == t and hash(same) == hash(t) and len({same, t}) == 1
        moved = t._replace(entries=[*t.entries.items()][::-1])  # _replace builds a dict too
        assert isinstance(moved.entries, dict) and moved == t

    def test_corrupted_tableau_fails_validation(self):
        t = next(enumerate_lr_tableaux(P("3,2,1"), P("2,1"), P("2,1")))
        bad = LRTableau(t.shape, {**t.entries, (1, 3): 2})
        assert not is_valid_lr_tableau(bad, P("2,1"))

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({(3, 2): None}, id="cell-dropped"),
            pytest.param({(1, 3): 0}, id="entry-zero"),
            pytest.param({(3, 1): 3, (3, 2): 2}, id="row-decreases"),
            pytest.param({(2, 3): 1}, id="column-repeats"),
            pytest.param({(3, 2): 4}, id="wrong-content"),
            pytest.param({(2, 3): 3, (3, 2): 2}, id="not-lattice"),
        ],
    )
    def test_validator_rejects_each_fault(self, change):
        # each change breaks one condition of the valid filling and keeps the others
        lam, mu, nu = P("4,3,2"), P("2,1"), P("3,2,1")
        valid = {(1, 3): 1, (1, 4): 1, (2, 2): 1, (2, 3): 2, (3, 1): 2, (3, 2): 3}
        shape = SkewShape(lam, mu)
        assert LRTableau(shape, valid) in list(enumerate_lr_tableaux(lam, mu, nu))
        assert is_valid_lr_tableau(LRTableau(shape, valid), nu)
        entries = {cell: v for cell, v in {**valid, **change}.items() if v is not None}
        assert not is_valid_lr_tableau(LRTableau(shape, entries), nu)

    def test_impossible_triples_enumerate_nothing(self):
        assert list(enumerate_lr_tableaux(P("2,1"), P("3"), P("0"))) == []
        assert list(enumerate_lr_tableaux(P("3,2,1"), P("2,1"), P("2,1,1"))) == []

    def test_merged_count_matches_enumeration(self):
        # merging partial fillings on (content, carried row) agrees with keeping every word, |lam| <= 8
        for w in range(9):
            for lam in bounded_partitions(w):
                for mu in subpartitions(lam):
                    for nu in bounded_partitions(w - mu.weight):
                        assert lr_tableau_count(lam, mu, nu) == len(
                            list(enumerate_lr_tableaux(lam, mu, nu))
                        ), (lam, mu, nu)

    def test_deterministic_order(self):
        args = (P("4,3,2,1"), P("2,2"), P("3,2,1"))
        first = [t.entries for t in enumerate_lr_tableaux(*args)]
        second = [t.entries for t in enumerate_lr_tableaux(*args)]
        assert first == second

    def test_order_pinned(self):
        # lexicographic in the reverse reading word; the lists are written out so any change of order shows
        assert [t.entries for t in enumerate_lr_tableaux(P("4,3,2,1"), P("2,2"), P("3,2,1"))] == [
            {(1, 4): 1, (1, 3): 1, (2, 3): 2, (3, 2): 2, (3, 1): 1, (4, 1): 3},
            {(1, 4): 1, (1, 3): 1, (2, 3): 2, (3, 2): 3, (3, 1): 1, (4, 1): 2},
        ]
        assert [
            t.entries for t in enumerate_lr_tableaux(P("6,6,4,4,2,2"), P("3,3,3"), P("5,4,3,2,1"))
        ] == [
            {
                (1, 6): 1, (1, 5): 1, (1, 4): 1, (2, 6): 2, (2, 5): 2, (2, 4): 2, (3, 4): 3, (4, 4): 4,
                (4, 3): 3, (4, 2): 1, (4, 1): 1, (5, 2): 3, (5, 1): 2, (6, 2): 5, (6, 1): 4,
            },
            {
                (1, 6): 1, (1, 5): 1, (1, 4): 1, (2, 6): 2, (2, 5): 2, (2, 4): 2, (3, 4): 3, (4, 4): 4,
                (4, 3): 3, (4, 2): 1, (4, 1): 1, (5, 2): 4, (5, 1): 2, (6, 2): 5, (6, 1): 3,
            },
        ]

    def test_deep_shapes_need_no_recursion(self):
        for lam in (Partition([1200]), Partition([1] * 1200)):
            assert lr_tableau_count(lam, Partition(), lam) == 1
            assert len(list(enumerate_lr_tableaux(lam, Partition(), lam))) == 1


class TestContentSentinel:
    """content[0] passes the lattice test at v = 1: it is nu_1 for a count and |lam| for an expansion."""

    @pytest.mark.parametrize(
        "lam, mu, nu, count",
        [
            ("0", "0", "0", 1),  # the empty shape
            ("3,2", "3,2", "0", 1),  # lam = mu
            ("3,2", "3,2", "1", 0),
            ("2,1", "1", "0", 0),  # nu empty, the shape not
            ("1^4", "0", "1^4", 1),  # a single column
            ("1^4", "0", "2,1,1", 0),
            ("1^4", "1", "1^3", 1),
            ("4", "0", "4", 1),  # a single row: content[1] ends at nu_1
            ("4", "1", "2,1", 0),
        ],
    )
    def test_count_and_enumeration(self, lam, mu, nu, count):
        lam, mu, nu = P(lam), P(mu), P(nu)
        assert lr_tableau_count(lam, mu, nu) == count == len(brute_fillings(lam, mu, nu))
        tableaux = list(enumerate_lr_tableaux(lam, mu, nu))
        assert len(tableaux) == count and all(is_valid_lr_tableau(t, nu) for t in tableaux)

    @pytest.mark.parametrize(
        "lam, mu, terms",
        [
            ("0", "0", {(): 1}),
            ("3,2", "3,2", {(): 1}),
            ("1^4", "0", {(1, 1, 1, 1): 1}),
            ("1^4", "1^2", {(1, 1): 1}),
            ("4", "0", {(4,): 1}),  # content[1] reaches |lam| only as the walk ends
            ("4", "1", {(3,): 1}),
            ("2,1", "1", {(2,): 1, (1, 1): 1}),
        ],
    )
    def test_expansion_states(self, lam, mu, terms):
        states, parts = lr_expansion_states(P(lam), P(mu))
        assert {parts(state): c for state, c in states.items()} == terms
        assert len(states) == len(terms)


class TestLatticeWord:
    def test_examples(self):
        assert is_lattice_word([1, 1, 2, 1, 3, 2])
        assert not is_lattice_word([2])
        assert not is_lattice_word([1, 2, 2])
        assert is_lattice_word([])
