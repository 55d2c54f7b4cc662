"""Littlewood-Richardson coefficients via integer hives.

Two independent engines (hive enumeration and the tableau rule) compute the
same coefficients; structural classifiers decide multiplicity-freeness of
Schur products and skew Schur expansions, and witness constructions exhibit
multiplicity wherever the classifiers say it must occur.
"""

from importlib import import_module

# The modules stay unloaded until a name is first read from the package, so a
# command-line launch pays only for the modules its command uses.
_EXPORTS = {
    "classify": (
        "MFVerdict",
        "Witness",
        "build_witness",
        "find_multiplicity_witness",
        "gty_mf",
        "lifted_witness",
        "product_witness",
        "skew_product_mf",
        "skew_witness",
        "stembridge_mf",
    ),
    "expansions": (
        "Expansion",
        "duality_check",
        "lr_coefficient",
        "max_multiplicity",
        "product_expansion",
        "skew_expansion",
    ),
    "hives": (
        "Hive",
        "HiveBoundary",
        "default_hive_side",
        "edge_labels",
        "enumerate_lr_hives",
        "free_interior_vertices",
        "is_valid_lr_hive",
        "lr_coefficient_hive",
    ),
    "partitions": (
        "Partition",
        "SegmentSeq",
        "ShapeClass",
        "WeightCapError",
        "add",
        "boundary_segments",
        "bounded_partitions",
        "complement",
        "conjugate",
        "contains",
        "format_partition",
        "parse_partition",
        "partitions_in_box",
        "shape_class",
        "shortness",
        "subpartitions",
        "union",
    ),
    "skew": (
        "SkewShape",
        "format_skew_shape",
        "parse_skew_shape",
    ),
    "sweep": (
        "SweepReport",
        "verify_sweep",
    ),
    "tableaux": (
        "LRTableau",
        "enumerate_lr_tableaux",
        "is_lattice_word",
        "is_valid_lr_tableau",
        "lr_tableau_count",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
