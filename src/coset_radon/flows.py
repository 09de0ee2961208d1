"""Successor flows: a two-point update rule that generalizes coset lines.

A flow on a finite set assigns to every ordered pair (a, b) a successor
s(a, b) subject to three axioms: s(a, a) = a; if a != b then s(a, b) != b;
and s(s(a, b), b) = a. Stepping (a, b) -> (b, s(a, b)) is then a bijection
on pairs, so pair space breaks into cycles. The points visited by one cycle,
with multiplicity, play the role of a geodesic; summing a function over them
gives a transform whose injectivity can be settled by the same exact rank
machinery as the group case.

On a group the rule s(a, b) = b a^{-1} b reproduces coset geometry: the
orbit through (a, b) visits exactly the coset a<a^{-1}b>, each point once.
A table from outside (a flow file, a library caller) is checked once, in
full, by validate_flow. The built-in flows, group_flow and constant_flow,
carry their construction's proof of the axioms and skip that walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionError, FlowAxiomError, InvalidOrderError
from .groups import GroupTable, _check_cap
from .radon import RadonSystem, _indptr

__all__ = [
    "FlowOrbit",
    "SuccessorFlow",
    "constant_flow",
    "flow_orbits",
    "flow_radon_system",
    "group_flow",
    "validate_flow",
]


@dataclass(frozen=True)
class SuccessorFlow:
    """Successor table meeting the three axioms: table[a][b] = s(a, b)."""

    size: int
    table: tuple[tuple[int, ...], ...]
    label: str


@dataclass(frozen=True)
class FlowOrbit:
    """One cycle of the pair-step map, recorded from its smallest state."""

    states: tuple[tuple[int, int], ...]
    period: int

    @property
    def stationary(self) -> bool:
        return self.period == 1

    def projection(self) -> tuple[int, ...]:
        """Sorted distinct points visited (first coordinates)."""
        return tuple(sorted({a for a, _ in self.states}))


def validate_flow(size: int, table, label: str = "flow") -> SuccessorFlow:
    """Check the three axioms; report the first violated one with a witness.

    The size and every cell must be Python ints, as in
    groups.from_cayley_table: floats, strings and booleans are rejected,
    not coerced. A size above the order cap raises SizeLimitError before
    any pair is walked.
    """
    if type(size) is not int or size < 1:
        raise InvalidOrderError(f"flow needs a positive integer size, got {size!r}")
    _check_cap(size, "flow")
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise DimensionError("a flow table must be a list of rows")
    rows = tuple(map(tuple, table))
    if len(rows) != size or any(len(r) != size for r in rows):
        raise FlowAxiomError("shape", (size, len(rows)))
    for a in range(size):
        for b in range(size):
            v = rows[a][b]
            if type(v) is not int or not 0 <= v < size:
                raise FlowAxiomError("range", (a, b, v))
    for a in range(size):
        if rows[a][a] != a:
            raise FlowAxiomError("fixed-diagonal", (a, rows[a][a]))
    for a in range(size):
        for b in range(size):
            if a != b and rows[a][b] == b:
                raise FlowAxiomError("avoids-target", (a, b))
    for a in range(size):
        for b in range(size):
            if rows[rows[a][b]][b] != a:
                raise FlowAxiomError("reflection", (a, b, rows[a][b]))
    return SuccessorFlow(size=size, table=rows, label=label)


def group_flow(g: GroupTable) -> SuccessorFlow:
    """s(a, b) = b a^{-1} b on a group's element ids, without validate_flow:
    in the proven group g, s(a, a) = a a^{-1} a = a; s(a, b) = b forces
    b a^{-1} = e, so a = b; s(s(a, b), b) = b (b a^{-1} b)^{-1} b = a; and
    every cell is a product in g, so an element id."""
    # row a of table[inv] is a^{-1} b over all b; a second gather puts b in front
    table = g.table[np.arange(g.order), g.table[list(g.inv)]]
    rows = tuple(map(tuple, table.tolist()))
    return SuccessorFlow(g.order, rows, f"group:{g.recipe}")


def constant_flow(size: int) -> SuccessorFlow:
    """s(a, b) = a: every pair is already its own mirror. The rule meets the
    three axioms by inspection, so validate_flow is not called."""
    if type(size) is not int or size < 1:
        raise InvalidOrderError(f"flow needs at least one point, got {size}")
    _check_cap(size, "flow")
    rows = tuple((a,) * size for a in range(size))
    return SuccessorFlow(size, rows, f"constant:{size}")


def _step(flow: SuccessorFlow, state: tuple[int, int]) -> tuple[int, int]:
    a, b = state
    return (b, flow.table[a][b])


def flow_orbits(flow: SuccessorFlow) -> list[FlowOrbit]:
    """All cycles of the pair-step map, each anchored at its lexicographically
    smallest state, in the order of those states. The step map is a
    bijection (reflection gives the inverse step), so every pair lies on
    exactly one cycle. Pairs are scanned in lexicographic order, so each
    cycle is first met at its smallest state, and cycles are met in order."""
    seen = [[False] * flow.size for _ in range(flow.size)]
    orbits = []
    for a in range(flow.size):
        for b in range(flow.size):
            if seen[a][b]:
                continue
            cycle = []
            cur = (a, b)
            while not seen[cur[0]][cur[1]]:
                seen[cur[0]][cur[1]] = True
                cycle.append(cur)
                cur = _step(flow, cur)
            if cur != (a, b):
                raise AssertionError("pair-step walk re-entered mid-cycle")
            orbits.append(FlowOrbit(states=tuple(cycle), period=len(cycle)))
    return orbits


def flow_radon_system(flow: SuccessorFlow) -> RadonSystem:
    """Summation rows from the nonstationary orbits, duplicates merged.

    Each row sums over the points its orbit visits as first pair coordinate,
    with multiplicity; two orbits that visit the same multiset give one row.

    Stationary orbits are the diagonal pairs (a, a); they would read off f(a)
    directly and are excluded, matching the exclusion of trivial subgroups.
    """
    return _orbit_system(flow, flow_orbits(flow))


def _orbit_system(flow: SuccessorFlow, orbits: list[FlowOrbit]) -> RadonSystem:
    """flow_radon_system on orbits already walked by flow_orbits(flow)."""
    if flow.size < 2:
        raise InvalidOrderError("flow transform needs at least two points")
    starts = []
    cells = []
    seen = set()
    for orbit in orbits:
        if orbit.stationary:
            continue
        visited = tuple(sorted(a for a, _ in orbit.states))
        if visited in seen:
            continue
        seen.add(visited)
        starts.append(orbit.states[0])
        cells.append(visited)
    lengths = [len(c) for c in cells]
    return RadonSystem(
        group=None,
        variant="flow",
        indptr=_indptr(lengths),
        indices=np.fromiter(chain.from_iterable(cells), np.int32, sum(lengths)),
        ncols=flow.size,
        starts=np.array(starts, dtype=np.int64).reshape(-1, 2),
    )
