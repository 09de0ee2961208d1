"""Central-element arithmetic: the integer spectrum of z = sum of 1_H.

z is the sum of 1_H over the subgroups H of a family, so z(x) counts the
subgroups that hold x. Both families are closed under conjugation, so z
is a class function and lies in the centre of the group algebra: it and
every power of it are held as class vectors, one value per conjugacy
class, mod exactla.P. radon's module docstring proves that the nullity m_0
of multiplication by z is the nullity of the family's coset rows, over Q
and mod P.

For the prime family, z comes from the element orders alone, and no
subgroup is listed. An element x != e of prime order p lies in <x>, the
only subgroup of prime order that holds it, and an element of any other
order lies in none. So z(x) = 1 exactly when x has prime order. With N_p
elements of order p there are N_p/(p - 1) subgroups of order p, so
z(e) = sum over p of N_p/(p - 1), and the family has
sum over p of N_p/(p - 1) |G|/p rows.

nullity(g, z) finds m_0 in four steps:

1. The Krylov sequence delta_e, z delta_e, z^2 delta_e, ... mod P stops at
   its first dependency. Each reduced vector carries its whole
   combination of the sequence, so that dependency is the minimal
   polynomial mu of z (radon's docstring proves it is z's own).
2. A nonzero constant term makes z a unit: m_0 = 0.
3. Otherwise mu = prod (x - omega) over the distinct integer eigenvalues
   omega in [0, S], where S = sum of z = sum of |H|. One Horner pass over
   0, ..., S finds them, and they must number deg mu.
4. Write mu = x r(x). Then e_0 = r(z)/r(0) is the idempotent onto the
   kernel of z. Multiplication by an element a of Q[G] has trace
   |G| a(e), so m_0 = tr e_0 = |G| e_0(e)
   = |G| sum over j of r_j t_j / r(0), with t_j = z^j(e), the entry at the
   class {e} of each vector the sequence read. Every denominator of e_0
   divides the product of the nonzero omega. Each of those lies in
   (0, S], and S < P, so the identity holds mod P. Since m_0 <= |G| < P,
   m_0 is its residue.

The size rule. The product by z on classes reads |support z| x classes
cells. Past rows x |G|, what a family's dense rows hold, nullity sums over
cosets instead, about 2|G| cells per subgroup, as C_n maximal and C_p prime do.
"""

from __future__ import annotations

import numpy as np

from . import exactla
from .groups import GroupTable, _left_coset_array, _row_blocks

__all__ = ["central_element", "minimal_polynomial", "nullity", "prime_element"]


def central_element(g: GroupTable, subs) -> np.ndarray:
    """z = sum of 1_H over subs, as its value at every element: the number
    of subgroups in subs that hold it."""
    return np.bincount(np.concatenate([s.elements for s in subs]), minlength=g.order)


def prime_element(g: GroupTable) -> tuple[np.ndarray, int]:
    """(z, rows) of the prime family, read off the element orders: z is 1
    at each element of prime order, and z(e) and rows count the subgroups
    of order p as N_p/(p - 1)."""
    orders = np.array(g.elt_order)
    counts = np.bincount(orders)
    subgroups = {
        p: int(counts[p]) // (p - 1)
        for p in np.flatnonzero(counts).tolist()
        if exactla.is_prime(p)
    }
    z = np.isin(orders, list(subgroups)).astype(np.int64)
    z[0] = sum(subgroups.values())
    return z, sum(k * (g.order // p) for p, k in subgroups.items())


def minimal_polynomial(step, v: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """(mu, heads): the monic polynomial mu of least degree with
    mu(T) v = 0 mod p, coefficients from the constant term up, and
    heads[j] = (T^j v)[0] for j < deg mu, where step(u) returns T u mod p
    as an int64 array and p < 2^31 is prime.

    Each new vector T^d v is reduced against the normalized rows before
    it, each zero at the pivots of the rows before it. A row carries its
    whole combination of v, ..., T^d v past its first len(v) entries, so
    the vector that reduces to zero, the first dependency, hands back mu.
    A reduction subtracts products already reduced mod p and reduces once
    at the end, so its entries stay above -(d + 1) p, inside int64.
    """
    m = len(v)
    pivots, rows, heads = [], [], []
    u = v % p
    while True:
        d = len(rows)
        w = np.zeros(m + d + 1, dtype=np.int64)
        w[:m] = u
        w[m + d] = 1
        for q, row in zip(pivots, rows):
            f = int(w[q]) % p
            if f:
                w[: len(row)] -= f * row % p
        w %= p
        nz = np.flatnonzero(w[:m])
        if not nz.size:
            return w[m:].tolist(), heads
        heads.append(int(u[0]))
        q = int(nz[0])
        pivots.append(q)
        rows.append(w * pow(int(w[q]), -1, p) % p)
        u = step(u)


def nullity(g: GroupTable, z: np.ndarray, rows: int | None = None, family=None) -> int:
    """m_0, the nullity of multiplication by the central element z, given
    at every element. Past the size rule on rows, a family's row count, z v
    is A^T A v by coset sums over the subgroups family() lists: v, spread
    to every element, is summed over each left coset and added back at its
    members. An element receives one sum per H, of |H| entries below P, so
    its total stays below S P < P^2 < 2^50. Otherwise z v reads v at the
    class of s^-1 r, s in the support of z and r a class representative, a
    block of the support at a time."""
    n, p = g.order, exactla.P
    labels, reps = g._classes
    support = np.flatnonzero(z)
    if rows is not None and len(support) * len(reps) > rows * n:
        cosets = [_left_coset_array(g, sub) for sub in family()]

        def times_z(v: np.ndarray) -> np.ndarray:
            spread, out = v[labels], np.zeros(n, dtype=np.int64)
            for coset in cosets:
                out[coset] += spread[coset].sum(axis=1, keepdims=True)
            return out[reps] % p

    else:
        weight, inv = z[support, None], np.take(g.inv, support)
        blocks = _row_blocks(len(support), len(reps))

        def classes(block: slice) -> np.ndarray:
            return labels[g.table[inv[block, None], reps]]

        # one block is gathered once for every product, more are gathered anew
        held = [classes(blocks[0])] if len(blocks) == 1 else None

        def times_z(v: np.ndarray) -> np.ndarray:
            # entries of v are below P < 2^25 and the weights sum to S < P,
            # so every sum stays inside int64
            out = np.zeros(len(reps), dtype=np.int64)
            for block, gathered in zip(blocks, held or map(classes, blocks)):
                out += (weight[block] * v[gathered]).sum(axis=0)
            return out % p

    delta_e = np.zeros(len(reps), dtype=np.int64)
    delta_e[0] = 1  # class 0 is {e}
    mu, traces = minimal_polynomial(times_z, delta_e, p)
    if mu[0]:
        return 0
    # mu(omega) for every omega in [0, S], by Horner; S < P < 2^25, so each
    # product stays below 2^50
    omega = np.arange(int(z.sum()) + 1, dtype=np.int64)
    value = np.zeros_like(omega)
    for coefficient in reversed(mu):
        value = (value * omega + coefficient) % p
    roots = np.count_nonzero(value == 0)
    if roots != len(mu) - 1:
        raise AssertionError(f"{roots} integer roots for a degree {len(mu) - 1} mu")
    r = mu[1:]
    m0 = n * sum(rj * tj for rj, tj in zip(r, traces)) * pow(r[0], -1, p) % p
    if not 0 < m0 <= n:
        raise AssertionError(f"m_0 = {m0} outside (0, {n}]")
    return m0
