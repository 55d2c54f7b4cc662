"""Differential sweeps: a multiplicity-free classifier against enumeration.

A sweep runs every instance in an m x n box (products: all ordered partition
pairs; skews: all basic shapes), or a seeded random sample of them, and
records each instance whose classifier verdict disagrees with the maximum
multiplicity of its enumerated expansion.
"""

from __future__ import annotations

import random
from itertools import product

from .classify import gty_mf, stembridge_mf
from .expansions import product_expansion, skew_expansion
from .partitions import partitions_in_box, subpartitions
from .skew import SkewShape, _basic_cap, format_skew_shape


class SweepReport:
    """Outcome of a sweep: the number of instances run, and each disagreement."""

    def __init__(self, instances, disagreements):
        self.instances = instances
        self.disagreements = disagreements

    @property
    def disagree(self):
        return len(self.disagreements)

    @property
    def agreements(self):
        return self.instances - self.disagree


def _product_key(mu, nu):
    return {"mu": list(mu.parts), "nu": list(nu.parts)}


def _skew_key(shape):
    return {"shape": format_skew_shape(shape)}


def verify_sweep(family, box, sample=None, seed=0, method="hive"):
    """Differential sweep: classifier verdict vs enumerated max multiplicity.

    Each instance is an argument tuple for the family's classifier and
    expansion; a disagreement records the instance's key, then the cases
    that fired and the enumerated maximum multiplicity.
    """
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be non-negative, got {sample}")
    parts = partitions_in_box(*box)
    if family == "products":
        n = len(parts)
        instances = product(parts, repeat=2)
        if sample is not None:  # index j is pair j of that order: the picks of the listed pairs
            picks = random.Random(seed).sample(range(n * n), min(sample, n * n))
            instances = [(parts[j // n], parts[j % n]) for j in picks]
        classify, expand, key = stembridge_mf, product_expansion, _product_key
    elif family == "skews":
        instances = [(SkewShape(lam, mu),) for lam in parts for mu in subpartitions(_basic_cap(lam))]
        if sample is not None:
            instances = random.Random(seed).sample(instances, min(sample, len(instances)))
        classify, expand, key = gty_mf, skew_expansion, _skew_key
    else:
        raise ValueError(f"unknown family {family!r}")
    disagreements = []
    count = 0
    for count, args in enumerate(instances, 1):
        verdict = classify(*args)
        enum_max = expand(*args, method=method).max_multiplicity()
        if verdict.multiplicity_free != (enum_max <= 1):
            disagreements.append(
                {**key(*args), "cases": verdict.sorted_cases(), "max_multiplicity": enum_max}
            )
    return SweepReport(count, disagreements)
