"""Workload definitions and seeded input generation.

Each workload is a fixed list of CLI queries; README.md says why each one
exists. A query is the argv string handed to ``coset_radon.cli.main``
(``--json`` is appended when it runs); ``{NAME}`` stands for the path of a
Cayley table generated for that run.

The seed shuffles query order and relabels every generated table with a
random permutation of its elements. Tables are built here from their
textbook definitions, not by the package under test, so the program sees
only argv and files.
"""

from __future__ import annotations

import itertools
import json
import os
import random

WORKLOADS = {
    "exact-kernel": [
        "radon C240 --kernel",
        "radon Dic63 --kernel",
        "radon Dic64 --kernel",
        "radon C96 --variant maximal --kernel",
        "radon C360",
        "radon C60 --kernel",
        "radon Dic15 --kernel",
        "radon file:{Dic63}",
    ],
    "modular-certify": [
        "radon S6",
        "radon S6 --variant maximal",
        "radon A6",
        "radon C2xC2xC2xC2xC2xC2xC2xC2",
        "radon S5",
        "radon C12xC12 --variant maximal",
        "radon A5 --variant maximal",
        "radon file:{A6}",
    ],
    "group-build": [
        "group A7",
        "group S6",
        "group C2xC2xC2xC2xC2xC2xC2xC2xC2xC2",
        "group C30xC30",
        "group file:{S6}",
        "group file:{D500}",
    ],
    "suite-sweep": [
        "verify abelian",
        "verify products",
        "verify catalog",
        "verify bound",
        "verify lemma-prime",
        "verify subgroup-monotone",
        "verify spectral-abelian",
        "verify maximal",
        "verify flows",
        "spectral C12xC12",
        "spectral C2xC4xC3xC5",
        "spectral Dic2 --rep builtin:q8",
        "flow group:S4",
        "flow constant:7",
    ],
}


# ---------------------------------------------------------------------------
# Cayley tables from their definitions


def _perm_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]


def _symmetric(n: int) -> list[list[int]]:
    return _perm_table(list(itertools.permutations(range(n))))


def _even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
    return inversions % 2 == 0


def _alternating(n: int) -> list[list[int]]:
    return _perm_table([p for p in itertools.permutations(range(n)) if _even(p)])


def _dihedral(n: int) -> list[list[int]]:
    """D_n of order 2n: element (s, k) is r^k s^s, stored at s*n + k."""

    def mul(a: int, b: int) -> int:
        s1, k1 = divmod(a, n)
        s2, k2 = divmod(b, n)
        k = (k1 + k2) % n if s1 == 0 else (k1 - k2) % n
        return ((s1 + s2) % 2) * n + k

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def _dicyclic(n: int) -> list[list[int]]:
    """Dic_n of order 4n: element (j, k) is a^k x^j, with x^2 = a^n and
    x a x^-1 = a^-1, stored at j*2n + k."""
    m = 2 * n

    def mul(a: int, b: int) -> int:
        j1, k1 = divmod(a, m)
        j2, k2 = divmod(b, m)
        k = (k1 + (k2 if j1 == 0 else -k2)) % m
        if j1 == 1 and j2 == 1:
            return (k + n) % m
        return ((j1 + j2) % 2) * m + k

    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


TABLES = {
    "A6": lambda: _alternating(6),
    "S6": lambda: _symmetric(6),
    "Dic63": lambda: _dicyclic(63),
    "D500": lambda: _dihedral(500),
}


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same group with element x renamed perm[x]."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        new_row = out[perm[a]]
        for b, c in enumerate(row):
            new_row[perm[b]] = perm[c]
    return out


def table_names(queries: list[str]) -> list[str]:
    names = []
    for q in queries:
        for name in TABLES:
            if "{" + name + "}" in q and name not in names:
                names.append(name)
    return names


def make_inputs(workload: str, seed: int, directory: str) -> list[tuple[str, list[str]]]:
    """Write the seeded tables into directory; return (query id, argv) pairs
    in the seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    queries = list(WORKLOADS[workload])
    paths = {}
    for name in table_names(queries):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"table": relabel(TABLES[name](), rng)}, fh, separators=(",", ":"))
        paths[name] = path
    rng.shuffle(queries)
    return [(q, [tok.format(**paths) for tok in q.split()] + ["--json"]) for q in queries]
