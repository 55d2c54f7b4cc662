import pytest

from lrhive.partitions import Partition, parse_partition, partitions_in_box, subpartitions
from lrhive.skew import SkewShape, _basic_cap, format_skew_shape, parse_skew_shape, star

P = parse_partition
S = parse_skew_shape


def all_shapes_in_box(m, n):
    for lam in partitions_in_box(m, n):
        for mu in subpartitions(lam):
            yield SkewShape(lam, mu)


class TestConstruction:
    def test_requires_containment(self):
        with pytest.raises(ValueError):
            SkewShape(P("2,2"), P("3"))

    def test_cells(self):
        assert S("3,2,1/2,1").cells() == [(1, 3), (2, 2), (3, 1)]

    def test_size(self):
        assert S("4,3,2,1/2,2").size == 6
        assert S("0/0").size == 0

    def test_parse_without_inner(self):
        s = S("4,3,2")
        assert s.inner == Partition()

    def test_format_round_trip(self):
        for text in ("3,2,1/2,1", "4,3,2/0", "9,9,6,6,6/5,5,2"):
            assert format_skew_shape(S(text)) == S(text).__str__()
            assert S(format_skew_shape(S(text))) == S(text)


class TestRotate:
    def test_partition_rotation(self):
        assert S("4,3,2").rotate_pi() == S("4,4,4/2,1")

    def test_skew_rotation(self):
        assert S("4,3,2/2").rotate_pi() == S("4,4,2/2,1")

    def test_rectangle_symmetric(self):
        for text in ("3,3", "5", "2,2,2,2"):
            assert S(text).rotate_pi() == S(text)

    def test_involution_on_basic_shapes_in_5x5(self):
        for shape in all_shapes_in_box(5, 5):
            if shape.is_basic():
                assert shape.rotate_pi().rotate_pi() == shape

    def test_rotation_preserves_cell_count(self):
        for shape in all_shapes_in_box(4, 4):
            assert shape.rotate_pi().size == shape.size


class TestBasic:
    def test_reduction_example(self):
        assert S("9,8,5,3,3,3/7,5,5,3,2,1").to_basic() == S("6,5,2,2/4,2,1")

    def test_already_basic(self):
        assert S("3,2,1/2,1").to_basic() == S("3,2,1/2,1")
        assert S("4,4,4/2,1").to_basic() == S("4,4,4/2,1")

    def test_idempotent_and_size_preserving(self):
        for shape in all_shapes_in_box(4, 4):
            b = shape.to_basic()
            assert b.size == shape.size
            assert b.to_basic() == b
            assert b.is_basic() or b.size == 0

    def test_is_basic_examples(self):
        assert S("6,5,2,2/4,2,1").is_basic()
        assert not S("9,8,5,3,3,3/7,5,5,3,2,1").is_basic()
        assert S("3,2,1/2,1").is_basic()

    def test_row_basic_vs_basic(self):
        # an empty column but no empty row
        s = S("3,1/2")
        assert s.is_row_basic()
        assert not s.is_basic()


def rebuilt_without_empty_lines(cells):
    """The shape of the cells once the empty rows and columns are deleted and the rest renumbered."""
    row = {r: i for i, r in enumerate(sorted({r for r, _ in cells}))}
    col = {c: j for j, c in enumerate(sorted({c for _, c in cells}), 1)}
    lines = [[] for _ in row]
    for r, c in cells:
        lines[row[r]].append(col[c])
    return SkewShape(Partition(max(cs) for cs in lines), Partition(min(cs) - 1 for cs in lines))


class TestBasicByCells:
    """The row rule of _basic_cap against the cell set, independent of that rule."""

    @pytest.mark.parametrize("m, n", [(5, 5), (6, 4), (3, 7), (4, 0)])
    def test_rule_matches_cells(self, m, n):
        for lam in partitions_in_box(m, n):
            every_row = set(range(1, lam.length + 1))
            every_col = set(range(1, (lam.parts[0] if lam else 0) + 1))
            basic = []
            for mu in subpartitions(lam):
                shape = SkewShape(lam, mu)
                cells = shape.cells()
                full = {r for r, _ in cells} == every_row and {c for _, c in cells} == every_col
                assert shape.is_basic() == full, shape
                assert shape.to_basic() == rebuilt_without_empty_lines(cells), shape
                if full:
                    basic.append(mu)
            assert list(subpartitions(_basic_cap(lam))) == basic, lam


class TestComponents:
    def test_disconnected_example(self):
        assert S("6,5,2,2,1/4,2,1").components() == [S("4,3/2"), S("2,2,1/1")]

    def test_connected(self):
        assert S("3,2/1").components() == [S("3,2/1")]

    def test_corner_touching_cells_split(self):
        # cells sharing only a corner sit in different components
        assert S("3,2,1/2,1").components() == [S("1"), S("1"), S("1")]

    def test_two_components(self):
        comps = S("6,5,2,2/4,2,1").components()
        assert len(comps) == 2

    def test_requires_basic(self):
        with pytest.raises(ValueError):
            S("3,1/2").components()

    def test_size_preserved(self):
        for shape in all_shapes_in_box(4, 4):
            b = shape.to_basic()
            if b.size:
                comps = b.components()
                assert sum(c.size for c in comps) == b.size
                assert all(c.is_basic() for c in comps)

    def test_empty_shape(self):
        assert SkewShape(Partition()).components() == []


class TestStar:
    def test_example(self):
        assert star(S("2,1/1"), S("2")) == S("4,3,2/3,2")

    def test_empty_factor(self):
        shape, empty = S("3,2,1/1"), SkewShape(Partition())
        assert star(empty, shape) == shape
        assert star(shape, empty) == shape
