"""Geodesics: left cosets of nontrivial cyclic subgroups.

A homomorphism from C_n into G is pinned down by the image of 1, so we
represent it by that generator. Geodesics of prime length are the rows of
the injectivity systems; the maximal variant instead takes cosets of the
cyclic subgroups not contained in any larger cyclic subgroup.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrderError, InvalidVariantError, NoGeodesicsError
from .exactla import is_prime
from .groups import GroupTable, SubgroupSet, _element_id, cyclic_subgroup, left_cosets

__all__ = [
    "Geodesic",
    "Homomorphism",
    "composite_orbit",
    "cyclic_subgroups",
    "homomorphisms_cn",
    "maximal_cyclic_subgroups",
    "maximal_geodesics",
    "prime_geodesics",
]


@dataclass(frozen=True)
class Homomorphism:
    """A map C_n -> G, t -> gen^t; nontrivial means gen is not the identity."""

    domain_order: int
    image_generator: int

    @property
    def nontrivial(self) -> bool:
        return self.image_generator != 0


@dataclass(frozen=True)
class Geodesic:
    """One left coset of a nontrivial cyclic subgroup."""

    subgroup: SubgroupSet
    rep: int
    coset: tuple[int, ...]


def homomorphisms_cn(g: GroupTable, n: int) -> list[Homomorphism]:
    """All nontrivial homomorphisms C_n -> G, ordered by generator id."""
    if n < 2:
        raise InvalidOrderError(f"domain order must be >= 2, got {n}")
    return [Homomorphism(n, x) for x in range(1, g.order) if n % g.elt_order[x] == 0]


def cyclic_subgroups(g: GroupTable) -> list[SubgroupSet]:
    """All distinct nontrivial cyclic subgroups, sorted by (order, elements)."""
    subs: list[SubgroupSet] = []
    # every generator of a listed subgroup is marked covered, so an
    # uncovered x generates a subgroup not listed yet
    covered = [False] * g.order
    for x in range(1, g.order):
        if covered[x]:
            continue
        sub = cyclic_subgroup(g, x)
        subs.append(sub)
        for y in sub.elements:
            covered[y] |= g.elt_order[y] == len(sub)
    return sorted(subs, key=lambda s: (len(s.elements), s.elements))


def maximal_cyclic_subgroups(g: GroupTable) -> list[SubgroupSet]:
    """Cyclic subgroups not strictly contained in a larger cyclic subgroup.

    An element z of a cyclic subgroup S with order below |S| generates a
    subgroup strictly inside S, so one pass marks every such z; the maximal
    subgroups are those whose generator is left unmarked.
    """
    subs = cyclic_subgroups(g)
    if not subs:
        return []
    members = np.concatenate([s.elements for s in subs])
    sizes = np.repeat([len(s) for s in subs], [len(s) for s in subs])
    inside = np.zeros(g.order, dtype=bool)
    inside[members[np.take(g.elt_order, members) < sizes]] = True
    return [s for s in subs if not inside[s.generator]]


def _geodesics_for(g: GroupTable, subs: Iterable[SubgroupSet]) -> list[Geodesic]:
    """One Geodesic record per left coset of each subgroup in subs, in the
    row order of radon.build_system; the one place such records are made."""
    rows = []
    for sub in subs:
        for coset in left_cosets(g, sub):
            rows.append(Geodesic(subgroup=sub, rep=coset[0], coset=coset))
    return rows


def _check_family(g: GroupTable, variant: str) -> None:
    """Raise unless variant names a family and g has geodesics."""
    if variant not in ("prime", "maximal"):
        raise InvalidVariantError(f"unknown variant {variant!r}")
    if g.order < 2:
        raise NoGeodesicsError("the trivial group has no geodesics")


def _family_subgroups(g: GroupTable, variant: str) -> list[SubgroupSet]:
    """The subgroups whose cosets are a variant's geodesics: the cyclic
    subgroups of prime order, or the maximal cyclic subgroups."""
    _check_family(g, variant)
    if variant == "maximal":
        return maximal_cyclic_subgroups(g)
    return [s for s in cyclic_subgroups(g) if is_prime(len(s.elements))]


def prime_geodesics(g: GroupTable) -> list[Geodesic]:
    """Deduplicated geodesics of prime length, the rows that matter.

    Composite-length coset sums are recoverable from these, so nothing else
    enters the linear systems. One geodesic per (subgroup, coset) pair: the
    p-1 generators of each order-p subgroup all trace the same coset.
    """
    return _geodesics_for(g, _family_subgroups(g, "prime"))


def maximal_geodesics(g: GroupTable) -> list[Geodesic]:
    """Geodesics of the maximal variant: cosets of maximal cyclic subgroups."""
    return _geodesics_for(g, _family_subgroups(g, "maximal"))


def composite_orbit(g: GroupTable, hom: Homomorphism, x: int) -> tuple[int, ...]:
    """The multiset {x * gen^t : t in C_n}, returned sorted.

    Each member of the coset x*<gen> shows up n / |<gen>| times.
    """
    steps = g.powers(hom.image_generator, hom.domain_order)
    return tuple(sorted(g.table[_element_id(g, x), steps].tolist()))
