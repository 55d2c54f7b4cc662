"""Differential sweeps: a multiplicity-free classifier against enumeration.

A sweep runs every instance in an m x n box (products: all ordered partition
pairs; skews: all basic shapes), or a seeded random sample of them, and
records each instance whose classifier verdict disagrees with the maximum
multiplicity of its enumerated expansion.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from operator import index

from .classify import gty_mf, stembridge_mf
from .expansions import _engine, _product_shape, max_multiplicity
from .partitions import Partition, _walk_numbering, conjugate, partitions_in_box
from .skew import SkewShape, _basic_cap


class SweepReport(namedtuple("SweepReport", "instances disagreements")):
    """Outcome of a sweep: the number of instances run, and each disagreement."""

    __slots__ = ()

    @property
    def disagree(self):
        return len(self.disagreements)

    @property
    def agreements(self):
        return self.instances - self.disagree


# instance(j), for j < total, is the argument tuple that classify, shape_of and key take.
_Family = namedtuple("_Family", "classify total instance shape_of key")


def _cheapest_product(mu, nu):
    """The shape of whichever of four products with one maximum multiplicity walks cheapest.

    s_mu s_nu, s_nu s_mu, s_mu' s_nu' and s_nu' s_mu' have equal maximum
    multiplicities (Macdonald, Symmetric Functions, I.5), and that maximum
    is all a sweep reads.  A hive walk is the cheaper the smaller its side,
    len mu + len nu, and the lighter the factor star puts on top, so the
    pair is conjugated when mu_1 + nu_1 is the smaller side, then put
    lighter first.
    """
    if (mu.parts[0] if mu else 0) + (nu.parts[0] if nu else 0) < mu.length + nu.length:
        mu, nu = conjugate(mu), conjugate(nu)
    if nu.weight < mu.weight:
        mu, nu = nu, mu
    return _product_shape(mu, nu)


def verify_sweep(family, box, sample=None, seed=0, method="hive"):
    """Differential sweep: classifier verdict vs enumerated max multiplicity.

    Instance j, for every j below the family's total or a seeded sample of
    them, is an argument tuple for the family's classifier, key and shape
    map, which gives the skew shape whose walk is read: mu*nu for a pair,
    the shape itself for a skew.  A disagreement records the instance's key,
    then the cases that fired and the shape's maximum multiplicity.  A hive
    product sweep walks the shape _cheapest_product gives, but classifies
    and keys the pair as drawn; tableau walks are not cheaper that way.
    """
    try:
        if sample is not None and index(sample) < 0:
            raise ValueError(f"sample must be non-negative, got {sample}")
    except TypeError:
        raise ValueError(f"sample must be an integer, got {sample!r}") from None
    _engine(method)  # an unknown method fails even when no instance is drawn
    parts = partitions_in_box(*box)
    if family == "products":  # pair j is (parts[j // n], parts[j % n]), mu's order first
        n = len(parts)
        shape_of = _cheapest_product if method == "hive" else _product_shape
        family = _Family(
            stembridge_mf, n * n, lambda j: (parts[j // n], parts[j % n]), shape_of,
            lambda mu, nu: {"mu": list(mu.parts), "nu": list(nu.parts)},
        )
    elif family == "skews":  # shape j is lam/mu, numbered within the lam that bisecting j finds
        counts, items = zip(*(_walk_numbering(_basic_cap(lam).parts) for lam in parts))
        starts = list(accumulate(counts, initial=0))

        def skew(j):
            i = bisect_right(starts, j) - 1
            return (SkewShape._of(parts[i], Partition._of(items[i](j - starts[i]))),)

        family = _Family(gty_mf, starts[-1], skew, lambda s: s, lambda s: {"shape": str(s)})
    else:
        raise ValueError(f"unknown family {family!r}")
    numbers = range(family.total)
    if sample is not None:
        numbers = random.Random(seed).sample(numbers, min(sample, family.total))
    disagreements = []
    for args in map(family.instance, numbers):
        verdict = family.classify(*args)
        enum_max = max_multiplicity(family.shape_of(*args), method)
        if verdict.multiplicity_free != (enum_max <= 1):
            disagreements.append(
                {**family.key(*args), "cases": verdict.sorted_cases(), "max_multiplicity": enum_max}
            )
    return SweepReport(len(numbers), disagreements)
