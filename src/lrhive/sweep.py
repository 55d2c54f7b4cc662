"""Differential sweeps: a multiplicity-free classifier against enumeration.

A sweep runs every instance in an m x n box (products: all ordered partition
pairs; skews: all basic shapes), or a seeded random sample of them, and
records each instance whose classifier verdict disagrees with the maximum
multiplicity of its enumerated expansion.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import product

from .classify import gty_mf, stembridge_mf
from .expansions import _engine, _product_shape, max_multiplicity
from .partitions import Partition, _walk, conjugate, partitions_in_box
from .skew import SkewShape, _basic_cap, format_skew_shape


class SweepReport(namedtuple("SweepReport", "instances disagreements")):
    """Outcome of a sweep: the number of instances run, and each disagreement."""

    __slots__ = ()

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

    Each instance is an argument tuple for the family's classifier, key
    and shape map, which gives the skew shape whose walk is read: mu*nu
    for a pair, the shape itself for a skew.  A disagreement records the
    instance's key, then the cases that fired and the shape's maximum
    multiplicity.  A hive product sweep walks the shape _cheapest_product
    gives, but classifies and keys the pair as drawn; tableau walks are
    not cheaper that way.
    """
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be non-negative, got {sample}")
    _engine(method)  # an unknown method fails even when no instance is drawn
    parts = partitions_in_box(*box)
    if family == "products":
        n = len(parts)
        instances = product(parts, repeat=2)
        if sample is not None:  # index j is pair j of that order: the picks of the listed pairs
            picks = random.Random(seed).sample(range(n * n), min(sample, n * n))
            instances = [(parts[j // n], parts[j % n]) for j in picks]
        shape_of = _cheapest_product if method == "hive" else _product_shape
        classify, key = stembridge_mf, _product_key
    elif family == "skews":
        # (lam, parts of mu) in shape order, mu inside lam; only the shapes run are built
        pairs = ((lam, mu) for lam in parts for mu in _walk(_basic_cap(lam).parts))
        if sample is not None:
            pairs = list(pairs)
            pairs = random.Random(seed).sample(pairs, min(sample, len(pairs)))
        instances = ((SkewShape._of(lam, Partition._of(mu)),) for lam, mu in pairs)
        classify, shape_of, key = gty_mf, lambda shape: shape, _skew_key
    else:
        raise ValueError(f"unknown family {family!r}")
    disagreements = []
    count = 0
    for count, args in enumerate(instances, 1):
        verdict = classify(*args)
        enum_max = max_multiplicity(shape_of(*args), method)
        if verdict.multiplicity_free != (enum_max <= 1):
            disagreements.append(
                {**key(*args), "cases": verdict.sorted_cases(), "max_multiplicity": enum_max}
            )
    return SweepReport(count, disagreements)
