"""Exact linear algebra over the rationals, plus one modular certificate.

Rank and kernel verdicts rest on one fraction-free integer elimination,
int_echelon, with Python's unbounded integers: rows are cross-multiplied,
divided by their gcd and kept in echelon form, so no floating point is ever
involved; rational_nullspace divides only to write its output Fractions.
field_rref and field_nullspace, generic over any exact field, serve only
the Gaussian-rational representations in spectral. The modular path reduces
the same matrix over the field of one fixed prime P in int64 numpy arrays,
CHUNK_ROWS rows at a time: each pivot updates only the block right of it
and below it, in place, and that block is reduced mod P only once every
4,096 pivots, as often as int64 needs to stay exact. A full rank mod P is
already a proof of full rational rank (a minor that is nonzero mod P is
nonzero); a deficient rank mod P only ever serves as a cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import islice

import numpy as np

__all__ = [
    "field_nullspace",
    "field_rref",
    "int_echelon",
    "is_prime",
    "next_prime",
    "P",
    "check_primes",
    "factorize",
    "prime_divisors",
    "rank_exact",
    "rank_mod",
    "rational_nullspace",
]


# ---------------------------------------------------------------------------
# integer echelon over Q


def _normalize(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = [v // g for v in row]
    for v in row:
        if v > 0:
            return row
        if v < 0:
            return [-u for u in row]
    return row


def int_echelon(rows, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Insert integer rows one at a time, keeping a gcd-reduced echelon basis.

    Returns (pivot columns, basis rows), both sorted by pivot column. Rows
    are eliminated by integer cross-multiplication only, so every basis row
    spans exactly what the inserted rows span over the rationals. Reading
    stops once the basis has ncols rows.
    """
    pivots: list[int] = []
    basis: list[list[int]] = []
    for row in rows:
        r = list(row)
        if len(r) != ncols:
            raise ValueError(f"row of length {len(r)}, expected {ncols}")
        for p, b in zip(pivots, basis):
            x = r[p]
            if x:
                lead = b[p]
                g = math.gcd(x, lead)
                cr, cb = lead // g, x // g
                r = [cr * ri - cb * bi for ri, bi in zip(r, b)]
        piv = next((j for j, v in enumerate(r) if v), None)
        if piv is None:
            continue
        r = _normalize(r)
        pos = bisect_left(pivots, piv)
        pivots.insert(pos, piv)
        basis.insert(pos, r)
        if len(basis) == ncols:
            break
    return pivots, basis


def rank_exact(rows, ncols: int) -> int:
    return len(int_echelon(rows, ncols)[0])


def rational_nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the rational kernel, presented in reduced row-echelon form.

    Entries are Fractions in lowest terms and each basis vector's leading
    entry is 1. One int_echelon pass over the column-reversed rows reduces
    the matrix from the right, so basis row b_q is zero right of its pivot q;
    integer back-substitution then clears each pivot column from the other
    rows. For a free column f, e_f - sum_q (b_q[f] / b_q[q]) e_q has its
    leading 1 at f and zeros at the other free columns: that is the unique
    reduced row-echelon form of the kernel.
    """
    rev_pivots, rev_basis = int_echelon((list(row)[::-1] for row in rows), ncols)
    rank = len(rev_pivots)
    if rank == ncols:
        return []
    pivots = [ncols - 1 - p for p in rev_pivots]
    basis = [row[::-1] for row in rev_basis]
    for i in range(rank - 1, 0, -1):
        q, bi = pivots[i], basis[i]
        lead = bi[q]
        for j in range(i):
            x = basis[j][q]
            if x:
                g = math.gcd(x, lead)
                cj, ci = lead // g, x // g
                basis[j] = _normalize([cj * a - ci * b for a, b in zip(basis[j], bi)])
    zero, one = Fraction(0), Fraction(1)
    vectors = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        vec = [zero] * ncols
        vec[f] = one
        for q, b in zip(pivots, basis):
            if b[f]:
                vec[q] = Fraction(-b[f], b[q])
        vectors.append(tuple(vec))
    return vectors


# ---------------------------------------------------------------------------
# generic exact elimination (Fraction or any exact field element type)


def field_rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over any exact field; returns (rows, pivots).

    Entries only need arithmetic dunders, truthiness for nonzero tests and
    exact division. Zero rows are dropped.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def field_nullspace(rows, ncols: int, zero, one) -> list[list]:
    """Kernel basis over an exact field; zero/one are that field's constants."""
    rref, pivots = field_rref(rows)
    free = [c for c in range(ncols) if c not in set(pivots)]
    vectors = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for i, p in enumerate(pivots):
            vec[p] = -rref[i][f]
        vectors.append(vec)
    return vectors


# ---------------------------------------------------------------------------
# modular path


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def next_prime(n: int) -> int:
    k = max(2, n + 1)
    while not is_prime(k):
        k += 1
    return k


def check_primes(bound: int, count: int = 3) -> list[int]:
    """The first `count` primes strictly above `bound`."""
    out = []
    p = bound
    for _ in range(count):
        p = next_prime(p)
        out.append(p)
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division: (prime, exponent) pairs,
    primes ascending; empty for n <= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return [p for p, _ in factorize(n)]


# rank_mod reads and eliminates this many rows at a time
CHUNK_ROWS = 2048

# The one prime of every verdict's modular rank: the largest prime below
# 2^25. A Cayley table of order 2^25 would need 2^50 cells, so P exceeds
# every order that fits in memory and divides none of them; and
# 2**62 // (P - 1)**2 == 4096, so _eliminate_mod reduces its trailing block
# once every 4,096 pivots.
P = 2**25 - 39


def _eliminate_mod(m: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array m to row echelon form mod p, in place, and
    return its nonzero rows: unit pivots, zeros left of each pivot, entries
    in [0, p).

    At each pivot column only the trailing block right of it, in the rows
    below, is updated; the block is left unreduced, and only the pivot
    column (to find the rows it hits) and the pivot row (to normalize it)
    are reduced on the spot. An update adds less than (p - 1)^2 in
    magnitude, so the block is reduced once every `budget` pivots, which
    keeps every entry inside int64 for any p < 2^31.
    """
    np.mod(m, p, out=m)
    nrows, ncols = m.shape
    budget = 2**62 // (p - 1) ** 2
    pending = 0
    r = 0
    for c in range(ncols):
        col = m[r:, c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = int(nz[0])
        if i:
            m[[r, r + i]] = m[[r + i, r]]
            col[0], col[i] = col[i], 0
        pivot = m[r, c:] % p
        pivot = pivot * pow(int(pivot[0]), p - 2, p) % p
        m[r, :c] = 0
        m[r, c:] = pivot
        below = col[1:]
        hit = np.flatnonzero(below)
        if hit.size == below.size:
            m[r + 1 :, c + 1 :] -= np.multiply.outer(below, pivot[1:])
        elif hit.size:
            rows = r + 1 + hit
            m[rows, c + 1 :] -= np.multiply.outer(below[hit], pivot[1:])
        pending += 1
        if pending == budget:
            m[r + 1 :, c + 1 :] %= p
            pending = 0
        r += 1
        if r == nrows:
            break
    return m[:r]


def rank_mod(rows, ncols: int, p: int) -> int:
    """Rank of an integer matrix mod p, with early stop at full rank.

    Rows are read lazily, CHUNK_ROWS at a time, and only the chunks that
    are eliminated are converted to an array.
    """
    rows = iter(rows)
    basis = np.zeros((0, ncols), dtype=np.int64)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        basis = _eliminate_mod(np.vstack([basis, *chunk], dtype=np.int64), p)
        if basis.shape[0] == ncols:
            break
    return int(basis.shape[0])
