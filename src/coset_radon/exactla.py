"""Exact linear algebra over the rationals, plus one modular certificate.

The modular path brings an integer matrix to reduced row echelon form over
the field of one fixed prime P, in int64 numpy arrays, CHUNK_ROWS rows at a
time, pivoting from the right. That basis is unique for the row space, so
_eliminate_mod is free to take its pivots in rounds of independent ones,
after LaMacchia and Odlyzko's structured elimination: each row's last
nonzero column is known, each distinct last column offers one candidate
row, and the round keeps the candidates that no other candidate touches.
Their columns are cleared from every other row in one sparse update over
the (row, pivot) pairs that hit, with each product reduced mod P before it
is summed, so int64 stays exact for any prime below 2^31. A full rank mod
P is already a proof of full rational rank (a minor that is nonzero mod P
is nonzero). A deficient basis mod P also yields the kernel with no second
elimination: nullspace_mod reads the reduced echelon form of the kernel
mod P straight off it, and lift_nullspace lifts each distinct entry once,
to a small integer or, by rational reconstruction, a fraction, and hands
back the basis as integer codes into those distinct values, with no Python
object per entry. The lift is only a candidate until the caller
substitutes its int64 scaled vectors into every row exactly.

rational_nullspace, the fallback when a lift fails and the test oracle,
rests on one fraction-free integer elimination, int_echelon, with
Python's unbounded integers: rows are cross-multiplied, divided by their
gcd and kept in echelon form, so no floating point is ever involved; it
divides only to write its output Fractions. Every other exact rank in
the package, the representation ranks in spectral included, is
rank_exact on integer rows. field_rref and field_nullspace, generic over
any exact field, have no caller in the package: they stay as the test
reference for rational_nullspace and as names perfbench/tracer.py wraps.
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
    "P",
    "echelon_mod",
    "factorize",
    "lift_nullspace",
    "nullspace_mod",
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

# bounds the temporaries of each pass over a table or a matrix
_BLOCK_CELLS = 1 << 20

# The one prime of every verdict's modular rank: the largest prime below
# 2^25. A Cayley table of order 2^25 would need 2^50 cells, so P exceeds
# every order that fits in memory and divides none of them.
P = 2**25 - 39


def _last_nonzero(block: np.ndarray) -> np.ndarray:
    """Column of each row's last nonzero entry, -1 for a zero row."""
    rev = block[:, ::-1] != 0
    last = block.shape[1] - 1 - rev.argmax(axis=1)
    last[~rev.any(axis=1)] = -1
    return last


def _nonzero_at(
    m: np.ndarray, cols: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for every nonzero m[rows[i], cols[k]], in order of i, where
    rows is every row of m by default; read a block of rows at a time, each
    block about _BLOCK_CELLS cells of m[rows][:, cols]."""
    n = len(m) if rows is None else len(rows)
    step = max(1, _BLOCK_CELLS // len(cols))
    if n <= step:
        return (m if rows is None else m[rows])[:, cols].nonzero()
    parts = []
    for lo in range(0, n, step):
        block = m[lo : lo + step] if rows is None else m[rows[lo : lo + step]]
        i, k = block[:, cols].nonzero()
        parts.append((i + lo, k))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _eliminate_mod(m: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array m, in place, to reduced row echelon form mod
    p, pivoting from the right, and return its nonzero rows as a fresh
    array: each row's last nonzero entry is a unit pivot, every other row
    is 0 in that column, every entry is in [0, p), and the pivots run
    right to left. That basis is unique for the row space of m mod p, so
    it does not depend on the order in which the pivots are taken.

    Pivots are taken in rounds. Every live row (nonzero, and no pivot row
    yet) has a known last nonzero column, and each distinct last column
    takes one live row as its candidate. The round keeps the candidates at
    whose column every other candidate is 0; the rightmost one always
    qualifies, since every other candidate is zero right of its own
    column, so each round makes progress. The kept rows are 0 at each
    other's columns, so once each is scaled to a unit pivot they clear
    their columns from every other row at once: one sparse update
    subtracts, for each (row, pivot) pair that hits, f times the nonzero
    entries of the pivot row. Each product is reduced mod p before it is
    summed, so a cell stays above -p times the round's pivot count and
    int64 is exact for any p < 2^31. The update touches no column right of
    the pivot, so a row's last column moves only when a pivot cleared it,
    and only those rows are scanned again.
    """
    if not m.size:
        return m[:0]
    if m.min() < 0 or m.max() >= p:
        np.mod(m, p, out=m)
    nrows, ncols = m.shape
    flat = m.reshape(-1)
    last = _last_nonzero(m)  # -1 once a row is zero or a pivot row
    pivot = np.full(nrows, -1)  # the column of each pivot row
    owner = np.empty(ncols, dtype=np.int64)
    inverse: dict[int, int] = {}
    while (live := (last >= 0).nonzero()[0]).size:
        # a repeated index keeps its last write, so each column's candidate
        # is its first live row; any of them would do
        owner.fill(-1)
        owner[last[live[::-1]]] = live[::-1]
        cols = (owner >= 0).nonzero()[0]
        rows = owner[cols]
        if cols.size > 1:
            i, k = _nonzero_at(m, cols, rows)
            keep = np.ones(cols.size, dtype=bool)
            keep[k[i != k]] = False
            rows, cols = rows[keep], cols[keep]
        last[rows] = -1
        pivot[rows] = cols
        # scale the nonzero entries of each pivot row by its pivot's inverse
        bk, bj = m[rows, : cols[-1] + 1].nonzero()
        bcell = rows[bk] * ncols + bj
        bval = flat[bcell]
        lead = m[rows, cols].tolist()
        if lead.count(1) < len(lead):
            for x in set(lead).difference(inverse):
                inverse[x] = pow(x, -1, p)
            scale = np.array([inverse[x] for x in lead], dtype=np.int64)
            bval = bval * scale[bk] % p
            flat[bcell] = bval
        # each other row r that is nonzero at a pivot column cols[k]
        r, k = _nonzero_at(m, cols)
        other = r != rows[k]
        r, k = r[other], k[other]
        if not r.size:
            continue
        # subtracts m[r, cols[k]] times each nonzero entry of pivot row k
        f = flat[r * ncols + cols[k]]
        count = np.bincount(bk, minlength=cols.size)
        n = count[k]
        ends = n.cumsum()
        entry = np.arange(ends[-1]) + (count.cumsum()[k] - ends).repeat(n)
        cell = r.repeat(n) * ncols + bj[entry]
        np.subtract.at(flat, cell, f.repeat(n) * bval[entry] % p)
        flat[cell] %= p
        moved = r[last[r] == cols[k]]
        if moved.size:
            last[moved] = _last_nonzero(m[moved, : last[moved].max() + 1])
    rows = (pivot >= 0).nonzero()[0]
    return m[rows[pivot[rows].argsort()[::-1]]]


def echelon_mod(rows, ncols: int, p: int) -> np.ndarray:
    """Reduced row echelon basis of an integer matrix mod p, pivoting from
    the right, as _eliminate_mod leaves it, with early stop at full rank.

    Rows are read lazily, CHUNK_ROWS at a time, and only the chunks that
    are eliminated are converted to an array. Each chunk is stacked under
    the basis so far, which is dropped before the elimination starts; the
    basis returned is a fresh array, so while the caller takes its kernel
    it does not keep alive the stacked array of the last chunk.
    """
    rows = iter(rows)
    basis = np.zeros((0, ncols), dtype=np.int64)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        basis = np.vstack([basis, *chunk], dtype=np.int64)
        basis = _eliminate_mod(basis, p)
        if basis.shape[0] == ncols:
            break
    return basis


def rank_mod(rows, ncols: int, p: int) -> int:
    """Rank of an integer matrix mod p, with early stop at full rank."""
    return len(echelon_mod(rows, ncols, p))


def nullspace_mod(echelon: np.ndarray, p: int) -> np.ndarray:
    """Kernel basis mod p of the row space of an echelon_mod basis, in
    reduced row-echelon form, as an int64 array with entries in [0, p).

    The kernel is read straight off the basis: each row R_q is 1 at its
    pivot q, 0 at every other pivot and zero right of q, so free column f
    gives the row e_f - sum_q R_q[f] e_q: 1 at f, 0 at the other free
    columns and zero left of f.
    """
    ncols = echelon.shape[1]
    pivots = ncols - 1 - (echelon[:, ::-1] != 0).argmax(axis=1)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    block = echelon[:, free]
    np.negative(block, out=block)
    block %= p
    out[:, pivots] = block.T
    return out


def _reconstruct(x: int, p: int, bound: int) -> tuple[int, int] | None:
    """(a, b) in lowest terms with a = b x mod p, |a| <= bound and
    0 < b <= bound, by Wang's rational reconstruction (the extended
    Euclidean algorithm on p and x, stopped at the first remainder within
    bound); None when there is no such pair. It is unique when
    2 bound^2 < p."""
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def lift_nullspace(
    kernel: np.ndarray, p: int
) -> tuple[np.ndarray, tuple[Fraction, ...], np.ndarray] | None:
    """Lift a nullspace_mod basis to rational vectors, one candidate per row,
    given as integer codes into the distinct values it holds.

    With N = isqrt((p - 1) // 2), so that 2 N^2 < p (N = 4095 at P), a
    residue whose symmetric representative v has |v| <= N lifts to v; any
    other goes through _reconstruct with bound N. Each distinct value is
    lifted, and made a Fraction, once, and no Python object is made per
    entry. Returns (codes, values, scaled): values is the tuple of the
    distinct Fractions, ascending, codes is an array of kernel's shape in
    the smallest unsigned dtype that indexes values, with the lifted entry
    (i, j) = values[codes[i, j]], and scaled is each lifted vector times
    the lcm of its denominators as an int64 array. None when a residue has
    no lift or a scaled entry could leave int64. Nothing here is proven:
    the caller must check scaled against the matrix exactly.

    kernel, an int64 array, is consumed: its buffer holds the int64 codes
    and then becomes scaled, so that no other array of its size and dtype
    is made. Pass a copy to keep it.
    """
    bound = math.isqrt((p - 1) // 2)
    # code c <= 2N stands for the integer c - N; later codes index the
    # fractions reconstructed from the residues outside [-N, N]
    code = kernel
    code += bound
    code[code > p // 2 + bound] -= p  # the residues above p // 2
    big = (code < 0) | (code > 2 * bound)
    num = np.arange(-bound, bound + 1, dtype=np.int64)
    den = np.ones_like(num)
    if big.any():
        residues, where = np.unique((code[big] - bound) % p, return_inverse=True)
        pairs = [_reconstruct(x, p, bound) for x in residues.tolist()]
        if None in pairs:
            return None
        num = np.concatenate([num, [a for a, _ in pairs]])
        den = np.concatenate([den, [b for _, b in pairs]])
        code[big] = 2 * bound + 1 + where.ravel()
        del residues, where
    # a reconstructed value has a denominator above 1, since a residue
    # whose lift is an integer within [-N, N] is not big
    fractional = np.flatnonzero(big.any(axis=1)).tolist()
    # renumber the codes in use by ascending value, so that equal bases get
    # equal codes, in the smallest dtype
    used = np.flatnonzero(np.bincount(code.ravel(), minlength=len(num)))
    values = [Fraction(a, b) for a, b in zip(num[used].tolist(), den[used].tolist())]
    order = sorted(range(len(used)), key=values.__getitem__)
    used = used[order]
    recode = np.empty(len(num), dtype=np.min_scalar_type(max(len(used) - 1, 0)))
    recode[used] = np.arange(len(used))
    codes = recode[code]
    # scaled is written over code with no gather the size of the kernel: an
    # integer's code less N is the integer, and each reconstructed
    # numerator goes back where its code stood
    scaled = code
    numerators = num[scaled[big]]
    scaled -= bound
    scaled[big] = numerators
    del big, numerators
    den = den[used]
    for k in fractional:
        row_den = den[codes[k]]
        lcm = math.lcm(*np.unique(row_den).tolist())
        if lcm * bound >= 2**63:
            return None
        scaled[k] *= lcm // row_den
    return codes, tuple(values[i] for i in order), scaled
