"""Brute-force isomorphism and embedding search for small groups.

Meant for cross-checks and suite plumbing at desk scale (orders well under
a few hundred): the generators the group was built with (g.generators,
chosen by one greedy closure whether or not the table was proven) are
sent to elements of the same orders and extended to a full homomorphism
by closure, so the search space stays tiny for the groups handled here.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from .groups import GroupTable

__all__ = [
    "are_isomorphic",
    "find_embedding",
    "find_isomorphism",
    "generating_sequence",
]


def generating_sequence(g: GroupTable) -> list[int]:
    """g.generators as a list: groups._greedy_generators closed {e} under
    right multiplication by them when g was built, so they generate g."""
    return list(g.generators)


def _extend_hom(
    h: GroupTable, g: GroupTable, gens: list[int], images: tuple[int, ...]
) -> list[int] | None:
    """Grow {gens -> images} into a full homomorphism h -> g, or None."""
    phi = [-1] * h.order
    phi[0] = 0
    frontier = [0]
    steps = [
        (h.table[:, gen].tolist(), g.table[:, img].tolist())
        for gen, img in zip(gens, images)
    ]
    while frontier:
        x = frontier.pop()
        for h_step, g_step in steps:
            y = h_step[x]
            iy = g_step[phi[x]]
            if phi[y] == -1:
                phi[y] = iy
                frontier.append(y)
            elif phi[y] != iy:
                return None
    # the generators generate h, so every phi[y] is set: no -1 is left
    p = np.array(phi)
    if not np.array_equal(p[h.table], g.table[np.ix_(p, p)]):
        return None
    return phi


def _search(h: GroupTable, g: GroupTable) -> list[int] | None:
    """An injective homomorphism h -> g as an image list, or None: each
    generator of h goes to an element of g of the same order."""
    gens = generating_sequence(h)
    # an empty pool leaves the product, and so the search, empty
    pools = [[x for x in range(g.order) if g.elt_order[x] == h.elt_order[gen]]
             for gen in gens]
    for chosen in itertools.product(*pools):
        phi = _extend_hom(h, g, gens, chosen)
        if phi is not None and len(set(phi)) == h.order:
            return phi
    return None


def find_embedding(h: GroupTable, g: GroupTable) -> list[int] | None:
    """An injective homomorphism h -> g as an image list, or None."""
    if g.order % h.order != 0:
        return None
    return _search(h, g)


def find_isomorphism(g: GroupTable, h: GroupTable) -> list[int] | None:
    if g.order != h.order:
        return None
    if Counter(g.elt_order) != Counter(h.elt_order):
        return None
    return _search(g, h)


def are_isomorphic(g: GroupTable, h: GroupTable) -> bool:
    return find_isomorphism(g, h) is not None
