import pytest
from hypothesis import given, strategies as st

from lrhive.partitions import (
    Partition,
    WeightCapError,
    add,
    boundary_segments,
    bounded_partitions,
    complement,
    conjugate,
    contains,
    format_partition,
    parse_partition,
    partitions_in_box,
    shape_class,
    shortness,
    subpartitions,
    union,
)

P = parse_partition


def diagram(p):
    """Cell set of the Young diagram, 1-indexed."""
    return {(r, c) for r, w in enumerate(p.parts, start=1) for c in range(1, w + 1)}


def brute_conjugate(p):
    """Count diagram cells column by column."""
    cells = diagram(p)
    width = p.parts[0] if p.parts else 0
    return Partition(sum(1 for (r, c) in cells if c == j) for j in range(1, width + 1))


def brute_complement(p, m, n):
    """Rotate the box cells not in the diagram by 180 degrees, read row lengths."""
    box = {(r, c) for r in range(1, n + 1) for c in range(1, m + 1)}
    rotated = {(n + 1 - r, m + 1 - c) for (r, c) in box - diagram(p)}
    return Partition(sum(1 for (rr, cc) in rotated if rr == r) for r in range(1, n + 1))


partitions_st = st.lists(st.integers(1, 9), min_size=0, max_size=7).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestParse:
    def test_identity_parse(self):
        assert P("4,3,2,1").parts == (4, 3, 2, 1)

    def test_exponent_notation(self):
        assert P("9^2,6^3").parts == (9, 9, 6, 6, 6)

    def test_zero_stripping(self):
        assert P("3,0,0").parts == (3,)

    def test_zero_partition_forms(self):
        assert P("0") == Partition()
        assert P("") == Partition()
        assert P("0^4") == Partition()

    def test_zero_runs_are_not_built(self):
        assert P("2,0^1000000000") == Partition([2])
        with pytest.raises(ValueError, match="^parts must be weakly decreasing, got 0 before 1$"):
            P("0^5,1")
        with pytest.raises(ValueError, match="got 0 before 1"):
            P("0^1000000000,1")

    def test_max_weight(self):
        assert P("9^2,6^3", max_weight=36) == P("9^2,6^3")
        assert P("5,0^1000000000", max_weight=5) == Partition([5])
        with pytest.raises(WeightCapError, match="^total weight 37 exceeds 36$") as exc:
            P("9^2,6^3,1", max_weight=36)
        assert exc.value.weight == 37
        with pytest.raises(WeightCapError) as exc:
            P("1^1000000000", max_weight=40)
        assert exc.value.weight == 10**9

    def test_space_separated(self):
        assert P("4 3 2 1").parts == (4, 3, 2, 1)

    @pytest.mark.parametrize("bad", ["1,3", "0,3", "-2", "a", "2^0", "2.5", "3,,2^-1"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            P(bad)

    @given(partitions_st)
    def test_format_round_trip(self, p):
        assert P(format_partition(p)) == p

    def test_format_zero(self):
        assert format_partition(Partition()) == "0"


class TestConstructor:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            Partition([2.5])

    def test_weight_length(self):
        p = Partition([4, 3, 2, 1])
        assert p.weight == 10
        assert p.length == 4
        assert not Partition()
        assert Partition().weight == 0


class TestConjugate:
    def test_fixed_point(self):
        assert conjugate(Partition([1])) == Partition([1])

    def test_empty(self):
        assert conjugate(Partition()) == Partition()

    def test_against_diagram_oracle(self):
        expected = brute_conjugate(Partition([4, 3, 2]))
        assert expected.parts == (3, 3, 2, 1)
        assert conjugate(Partition([4, 3, 2])) == expected

    def test_involution_weight_up_to_12(self):
        for w in range(13):
            for p in bounded_partitions(w):
                assert conjugate(conjugate(p)) == p
                assert conjugate(p) == brute_conjugate(p)


class TestAddUnion:
    def test_add(self):
        assert add(P("4,3"), P("2,1")).parts == (6, 4)

    def test_union(self):
        assert union(P("4,3"), P("2,1")).parts == (4, 3, 2, 1)

    def test_identity(self):
        p = P("3,1")
        assert add(p, Partition()) == p
        assert union(p, Partition()) == p

    def test_conjugacy_duality_example(self):
        # both routes land on the same diagram, checked by the cell oracle
        p, a = Partition([2, 2]), 2
        lhs = brute_conjugate(add(p, Partition([1] * a)))
        rhs = union(brute_conjugate(p), Partition([a]))
        assert lhs == rhs == Partition([2, 2, 2])
        assert conjugate(add(p, Partition([1] * a))) == union(conjugate(p), Partition([a]))

    @given(partitions_st, st.integers(1, 6))
    def test_conjugacy_duality(self, p, a):
        assert conjugate(add(p, Partition([1] * a))) == union(conjugate(p), Partition([a]))


class TestContains:
    def test_basic_true(self):
        assert contains(P("2,1"), P("3,2,1"))

    def test_basic_false(self):
        assert not contains(P("3"), P("2,2"))

    def test_paper_example(self):
        assert contains(P("5,5,2"), P("9^2,6^3"))


class TestComplement:
    def test_paper_example(self):
        assert complement(P("9^2,6^3"), 9, 5) == P("3,3,3")

    def test_empty_gives_box(self):
        assert complement(Partition(), 4, 3) == P("4,4,4")

    def test_formula_and_rotation_oracle(self):
        got = complement(P("3,2,1"), 3, 3)
        assert got == P("2,1") == brute_complement(P("3,2,1"), 3, 3)

    def test_rejects_outside_box(self):
        with pytest.raises(ValueError):
            complement(P("4"), 3, 3)
        with pytest.raises(ValueError):
            complement(P("1,1,1,1"), 3, 3)

    def test_involution_and_weight(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for p in partitions_in_box(m, n):
                    q = complement(p, m, n)
                    assert complement(q, m, n) == p
                    assert p.weight + q.weight == m * n
                    assert q == brute_complement(p, m, n)


class TestShapeClass:
    def test_one_line(self):
        sc = shape_class(P("5"), 5, 1)
        assert sc.is_rectangle and sc.is_one_line_rectangle
        assert not sc.is_two_line_rectangle and not sc.is_fat_hook

    def test_fat_hook_near(self):
        sc = shape_class(P("3,3,1"), 3, 3)
        assert sc.is_fat_hook and sc.is_near_rectangle
        assert not sc.is_rectangle

    def test_two_line(self):
        sc = shape_class(P("2,2,2"), 2, 3)
        assert sc.is_rectangle and sc.is_two_line_rectangle
        assert not sc.is_one_line_rectangle

    def test_zero_partition_no_flags(self):
        sc = shape_class(Partition(), 0, 0)
        assert not any(
            [sc.is_rectangle, sc.is_one_line_rectangle, sc.is_two_line_rectangle,
             sc.is_fat_hook, sc.is_near_rectangle]
        )

    def test_subtypes_depend_on_the_box(self):
        p = P("3,3,3")
        assert shortness(p, 9, 5) == 2
        assert shape_class(p, 9, 5).is_two_line_rectangle
        own = shape_class(p, 3, 3)
        assert own.is_rectangle and not own.is_two_line_rectangle

    def test_flag_consistency(self):
        """In its own box each partition gets the textbook run-length flags."""
        for w in range(13):
            for p in bounded_partitions(w):
                sc = shape_class(p, p.parts[0] if p else 0, p.length)
                if sc.is_one_line_rectangle or sc.is_two_line_rectangle:
                    assert sc.is_rectangle
                if sc.is_near_rectangle:
                    assert sc.is_fat_hook
                assert not (sc.is_rectangle and sc.is_fat_hook)
                runs = [(v, p.parts.count(v)) for v in sorted(set(p.parts), reverse=True)]
                if len(runs) == 1:
                    (a, k), = runs
                    assert sc.is_one_line_rectangle == (a == 1 or k == 1)
                    assert sc.is_two_line_rectangle == (a > 1 and k > 1 and 2 in (a, k))
                if len(runs) == 2:
                    (a, r), (b, s) = runs
                    assert sc.is_near_rectangle == (1 in (a - b, b, r, s))


class TestBoundary:
    def test_inner_path_example(self):
        seg = boundary_segments(P("5,5,2"), 9, 5)
        assert seg.segments == (2, 2, 1, 3, 2, 4)
        assert seg.starts_vertical

    def test_outer_path_example(self):
        seg = boundary_segments(P("9^2,6^3"), 9, 5)
        assert seg.segments == (6, 3, 3, 2)
        assert not seg.starts_vertical

    def test_empty_partition_staircase(self):
        seg = boundary_segments(Partition(), 7, 4)
        assert seg.segments == (4, 7)
        assert seg.starts_vertical

    def test_rejects_a_box_it_cannot_draw(self):
        with pytest.raises(ValueError, match="box sides must be positive"):
            boundary_segments(P("2"), 0, 3)
        with pytest.raises(ValueError, match="4 does not fit in a 3x3 box"):
            boundary_segments(P("4"), 3, 3)

    def test_segment_sums_exhaustive(self):
        for m in range(1, 9):
            for n in range(1, 9):
                for p in partitions_in_box(m, n):
                    seg = boundary_segments(p, m, n)
                    vertical = seg.segments[0::2] if seg.starts_vertical else seg.segments[1::2]
                    horizontal = seg.segments[1::2] if seg.starts_vertical else seg.segments[0::2]
                    assert sum(vertical) == n
                    assert sum(horizontal) == m
                    assert all(s > 0 for s in seg.segments)

    def test_complement_reverses_segments(self):
        for m in range(1, 7):
            for n in range(1, 7):
                for p in partitions_in_box(m, n):
                    seg = boundary_segments(p, m, n)
                    cseg = boundary_segments(complement(p, m, n), m, n)
                    assert cseg.segments == seg.segments[::-1]
                    # the reversed path starts with what p's path ended with
                    if len(seg.segments) % 2 == 0:
                        assert cseg.starts_vertical != seg.starts_vertical
                    else:
                        assert cseg.starts_vertical == seg.starts_vertical


class TestShortness:
    def test_examples(self):
        assert shortness(P("5,5,2"), 9, 5) == 1
        assert shortness(P("3,3,3"), 9, 5) == 2
        assert shortness(Partition(), 4, 7) == 4


class TestGenerators:
    def test_bounded_partitions_weight_4(self):
        got = [p.parts for p in bounded_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_bounds_respected(self):
        for p in bounded_partitions(6, Partition([3] * 3)):
            assert p.weight == 6 and p.length <= 3 and p.parts[0] <= 3

    def test_box_count(self):
        # partitions inside a 3x3 box: binomial(6, 3)
        assert len(partitions_in_box(3, 3)) == 20

    def test_box_sides(self):
        assert partitions_in_box(0, 3) == partitions_in_box(3, 0) == [Partition()]
        for m, n in ((-1, 3), (3, -1), (-2, -2)):
            with pytest.raises(ValueError, match="box sides must be non-negative"):
                partitions_in_box(m, n)

    def test_subpartitions(self):
        subs = list(subpartitions(P("2,1")))
        assert len(subs) == len(set(subs)) == 5
        assert set(s.parts for s in subs) == {(), (1,), (2,), (1, 1), (2, 1)}

    def test_bounds_match_filtered_rectangle(self):
        shapes = partitions_in_box(3, 3)
        for outer in shapes:
            rect = Partition([outer.parts[0] if outer else 0] * outer.length)
            for w in range(10):
                want = [p for p in bounded_partitions(w, rect) if contains(p, outer)]
                assert list(bounded_partitions(w, outer)) == want, (w, outer)

    def test_long_columns_need_no_recursion(self):
        assert sum(1 for _ in subpartitions(Partition([1] * 1200))) == 1201
        column = Partition([1] * 1100)
        assert list(bounded_partitions(1100, column)) == [column]
