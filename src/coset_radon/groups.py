"""Finite groups as validated Cayley tables with dense 0-based element ids.

The identity always sits at id 0. Constructors hand back immutable
GroupTable records, and every one of them is a group, at every order.

A named group's construction is its proof, stated in each constructor's
docstring: cyclic tables are addition mod n, dihedral and dicyclic tables
are rows of the cyclic window table with a known presentation, S_n and A_n
are composition of permutations, a direct product of groups is a group,
and so is a quotient by a subgroup that is_normal has checked. Such a
table is only wrapped (_wrap), never checked again.

A table from outside, a Cayley table (from_cayley_table) or a semidirect
product by a supplied action (make_semidirect), is proven a group by _build
in three steps:

1. 0 is a two-sided identity;
2. every row holds a 0, so every element has a right inverse;
3. Light's test passes on a generating set: (xa)y = x(ay) for every x, y
   and every generator a.

The elements that pass Light's test are closed under products in any
magma, so step 3 makes the table associative. An associative table with an
identity and right inverses is a group, and a group's table is a latin
square, so the latin property is never checked on a table that is
accepted. A rejected Cayley table is checked for it, so that its error
names the first row or column that is not a permutation, as it would if
that were checked first. Both routes choose the same generators, by one
greedy closure (_greedy_generators), so a table gets the same GroupTable
whichever route built it.

A group holds exactly one multiplication table: GroupTable.table, a
read-only C-contiguous uint16 array with table[a, b] the id of a*b. It is
built and validated as that array, and products, powers, cosets and
quotients are array operations on it. Every value handed back to callers
(cosets, subgroup elements, inverses, orders, powers) is a Python int.
uint16 holds every id of a table that fits in memory: at order 65,536 the
table already takes 8.6 GB, so max_group_order() never exceeds that.

A table file in canonical form, {"table": [[...]]} or a bare [[...]] of
plain nonnegative ints with no leading zero, at most as many digits as
n - 1 has, and JSON whitespace only between tokens, is read by
_canonical_table straight from its bytes into int32, with no JSON decode
and no Python object per cell. Any other file is decoded by json; both
routes give the same table, or the same error, for the same file. Both
parse into int32, wide enough for any cell of up to 9 digits, and narrow
to uint16 only once every cell is known to lie in 0..n-1, so a cell of
65,536 or more is refused, not wrapped into range.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssociativityError,
    GroupSpecError,
    GroupValidationError,
    InvalidActionError,
    InvalidOrderError,
    MissingIdentityError,
    MissingInverseError,
    NotAbelianError,
    NotAutomorphismError,
    NotHomomorphismError,
    NotNormalError,
    NotSubgroupError,
    SizeLimitError,
)
from .exactla import _BLOCK_CELLS, factorize

DEFAULT_MAX_ORDER = 5040
MAX_TABLE_ORDER = 65536  # the most ids uint16 holds

__all__ = [
    "DEFAULT_MAX_ORDER",
    "GroupTable",
    "MAX_TABLE_ORDER",
    "SubgroupSet",
    "abelian_basis",
    "conjugacy_classes",
    "cyclic_subgroup",
    "from_cayley_table",
    "from_name",
    "invariant_factors",
    "is_abelian",
    "is_cyclic",
    "is_normal",
    "left_cosets",
    "make_alternating",
    "make_cyclic",
    "make_dicyclic",
    "make_dihedral",
    "make_direct_product",
    "make_semidirect",
    "make_symmetric",
    "max_group_order",
    "quotient",
    "quotient_with_projection",
    "subgroup_from_elements",
    "make_trivial",
]


def max_group_order() -> int:
    """Active order cap; the COSET_RADON_MAX_ORDER env var overrides it,
    up to MAX_TABLE_ORDER, the most a uint16 table can label."""
    raw = os.environ.get("COSET_RADON_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidOrderError(
            f"COSET_RADON_MAX_ORDER must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise InvalidOrderError(f"COSET_RADON_MAX_ORDER must be positive, got {cap}")
    return min(cap, MAX_TABLE_ORDER)


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A group: its read-only uint16 Cayley table plus cached per-element
    data (inverses and element orders, as Python ints) and a generating
    set, the one _greedy_generators chooses; on a table from outside,
    Light's test proved associativity on exactly that set."""

    order: int
    table: np.ndarray
    inv: tuple[int, ...]
    elt_order: tuple[int, ...]
    recipe: str
    generators: tuple[int, ...]

    def powers(self, x: int, length: int | None = None) -> list[int]:
        """x^0, x^1, ..., x^(length-1), walking column x of the table;
        length defaults to the order of x, one full period."""
        if length is None:
            length = self.elt_order[x]
        step = self.table[:, x].item
        out = [0] * length
        for k in range(1, length):
            out[k] = step(out[k - 1])
        return out

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k (negative powers go through the inverse)."""
        return self.powers(a)[k % self.elt_order[a]]


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup given by its sorted element ids.

    generator is set when the subgroup is cyclic and a generating element is
    known; elements are then exactly the powers of that generator.
    """

    elements: tuple[int, ...]
    generator: int | None = None

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# validation


def _check_cap(order: int, what: str) -> None:
    """Raise SizeLimitError before anything of that order is allocated."""
    cap = max_group_order()
    if order > cap:
        # str() refuses integers of more than 4300 digits, such as 2000!;
        # past 64 bits the size is the largest power of two below the order
        bits = (order - 1).bit_length() - 1
        size = order if order.bit_length() <= 64 else f"more than 2^{bits}"
        raise SizeLimitError(f"{what} has order {size}, above the cap of {cap}")


def _row_blocks(n: int, width: int | None = None) -> list[slice]:
    """Row slices of an n x width array (n x n by default), about
    _BLOCK_CELLS cells each."""
    step = max(1, _BLOCK_CELLS // (width or n))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _check_latin(t: np.ndarray) -> None:
    """Raise, naming the first row, then the first column, of t that is not
    a permutation of the ids. Only rejected tables are checked: an accepted
    one is a group, and a group's table is latin."""
    ids = np.arange(len(t))
    for rows in _row_blocks(len(t)):
        bad = np.flatnonzero((np.sort(t[rows], axis=1) != ids).any(axis=1))
        if bad.size:
            raise GroupValidationError(
                f"row {rows.start + bad[0]} of the table is not a permutation"
            )
    for cols in _row_blocks(len(t)):
        bad = np.flatnonzero((np.sort(t[:, cols], axis=0) != ids[:, None]).any(axis=0))
        if bad.size:
            raise GroupValidationError(
                f"column {cols.start + bad[0]} of the table is not a permutation"
            )


def _greedy_generators(t: np.ndarray, orders: np.ndarray):
    """Yield a generating set of t, chosen greedily: the unreached element
    of largest order, then {0} closed under right multiplication by every
    generator so far (_close), until every id is reached.

    Each generator is yielded before the mask is closed under it, so that
    Light's test can check it first. Closing {0} reaches only
    left-bracketed products of the generators. On a table with identity 0
    and a 0 in every row whose generators pass Light's test, or on any
    group, each set R reached so far is a group: right multiplication by
    a checked a is injective, since (xa)a' = x(aa') = x for a right inverse
    a' of a. A new generator b lies outside R, so Rb is disjoint from R and
    as large, and there are at most log2(n) generators. Taking an
    unreached element of largest order keeps the set small in practice.
    """
    reached = np.zeros(len(t), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        a = int(np.argmax(np.where(reached, 0, orders)))
        yield a
        gens.append(a)
        _close(t, reached, gens)


def _check_associativity(t: np.ndarray, orders: np.ndarray) -> list[int]:
    """Light's test on the greedy generating set; a proof at every order.
    Returns that generating set.

    The elements a with (xa)y = x(ay) for all x, y are closed under
    products in any magma, so checking a generating set proves
    associativity. With at most log2(n) generators (_greedy_generators)
    the test costs O(n^2 log n).
    """
    gens = []
    for a in _greedy_generators(t, orders):
        _check_generator(t, a)
        gens.append(a)
    return gens


def _check_generator(t: np.ndarray, a: int) -> None:
    """Light's comparison for one element a: (xa)y = x(ay) for every x, y,
    or AssociativityError at the first failing triple, row by row."""
    right_a, left_a = np.ascontiguousarray(t[:, a]), t[a]
    for rows in _row_blocks(len(t)):
        # take gathers several times faster than fancy indexing here
        lhs = t.take(right_a[rows], axis=0)  # (x*a)*y
        rhs = t[rows].take(left_a, axis=1)  # x*(a*y)
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            raise AssociativityError((rows.start + int(x), a, int(y)))


def _close(t: np.ndarray, reached: np.ndarray, gens: list[int]) -> None:
    """Grow the mask reached, in place, until right multiplication by
    every element of gens maps it into itself.

    Right multiplication by a is the map pi = t[:, a] of the ids, and the
    mask is closed under it by squaring: R <- R | pi(R), then
    pi <- pi o pi, until a round adds nothing. After j rounds R is the
    union of pi^i(R0) for i < 2^j, so a generator of order d costs
    O(log d) rounds. When round j adds nothing, R, the union for
    i < s = 2^(j-1), holds pi^s(R0) as well, so pi(R) lies in R. The
    generators take turns until none of them grows the mask. The least
    closed superset of R0 is unique, so the mask is the one a
    breadth-first walk reaches.
    """
    columns = [t[:, a] for a in gens]
    idle = 0  # generators in a row under which the mask is closed
    for pi in itertools.cycle(columns):
        if idle == len(columns):
            break
        size, grew = np.count_nonzero(reached), False
        while True:
            reached[pi[reached]] = True
            now = np.count_nonzero(reached)
            if now == size:
                break
            size, grew = now, True
            pi = pi[pi]
        idle = 1 if grew else idle + 1  # a grown mask is closed under pi


def _powers(t: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """x[i]^k for every i at once (k >= 1), by squaring: O(log k) gathers."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else t[out, x]
        k >>= 1
        if not k:
            return out
        x = t[x, x]


def _element_orders(t: np.ndarray) -> np.ndarray:
    """The order of every element, in O((w(n) + 1) log n) gathers, where
    w(n) counts the distinct primes dividing the order n of the table.

    For each prime power p^e exactly dividing n, b = a^(n/p^e) is raised
    to p-th powers until it reaches 0: f steps make p^f the p-part of the
    order of a. Powers by squaring are exact once the table is associative.
    Until that is proven the values only steer the choice of generators in
    Light's test, and on any table each of them is a divisor of n.
    """
    n = len(t)
    ids = np.arange(n, dtype=np.uint16)
    orders = np.ones(n, dtype=np.int64)
    for p, e in factorize(n):
        b = _powers(t, ids, n // p**e)
        for _ in range(e):
            left = b != 0
            if not left.any():
                break
            orders[left] *= p
            b = _powers(t, b, p)
    return orders


def _build(t: np.ndarray, recipe: str) -> GroupTable:
    """Prove that a table from outside, with values in 0..n-1, is a group
    with identity 0, in the three steps of the module docstring, and wrap
    it, read-only, in a GroupTable.

    Callers check the order cap before they allocate the table.
    """
    n = len(t)
    ids = np.arange(n)
    if (t[0] != ids).any() or (t[:, 0] != ids).any():
        raise MissingIdentityError("element 0 is not a two-sided identity")
    inv = np.argmin(t, axis=1)  # where each row holds its least value
    bad = np.flatnonzero(t[ids, inv] != 0)
    if bad.size:
        raise MissingInverseError(int(bad[0]))
    orders = _element_orders(t)
    return _group_table(t, recipe, inv, orders, _check_associativity(t, orders))


def _wrap(t: np.ndarray, recipe: str) -> GroupTable:
    """Wrap, read-only, the table of a group whose construction proves it
    one, with identity 0; nothing is checked.

    The inverse of x is x^(n-1), which is x^(ord x - 1) since ord x divides
    n: O(log n) gathers by squaring. The generators are those _build would
    find, chosen by the same greedy closure without Light's comparisons.
    """
    n = len(t)
    ids = np.arange(n, dtype=np.uint16)
    orders = _element_orders(t)
    inv = _powers(t, ids, n - 1) if n > 1 else ids
    return _group_table(t, recipe, inv, orders, list(_greedy_generators(t, orders)))


def _group_table(
    t: np.ndarray, recipe: str, inv: np.ndarray, orders: np.ndarray, gens: list[int]
) -> GroupTable:
    t = np.ascontiguousarray(t, dtype=np.uint16)
    t.setflags(write=False)
    return GroupTable(
        order=len(t),
        table=t,
        inv=tuple(inv.tolist()),
        elt_order=tuple(orders.tolist()),
        recipe=recipe,
        generators=tuple(gens),
    )


# ---------------------------------------------------------------------------
# constructors


def _cyclic_window(n: int) -> np.ndarray:
    """The read-only uint16 table of (i + j) mod n: row i is the window at
    i of 0..n-1 written twice."""
    k = np.arange(n, dtype=np.uint16)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([k, k]), n)[:n]


def make_cyclic(n: int) -> GroupTable:
    """C_n with addition mod n, a group with identity 0: its construction
    is its proof."""
    if n < 1:
        raise InvalidOrderError(f"cyclic group order must be >= 1, got {n}")
    _check_cap(n, f"C{n}")
    return _wrap(_cyclic_window(n).copy(), f"C{n}")


def make_trivial() -> GroupTable:
    return make_cyclic(1)


def make_direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """G1 x G2 with id encoding a*|G2| + b. A direct product of groups is a
    group, with identity (0, 0) at id 0, so the table is not checked."""
    recipe = f"{g1.recipe}x{g2.recipe}"
    _check_cap(g1.order * g2.order, recipe)
    return _wrap(_product_table([g1.table, g2.table]), recipe)


def _product_table(tables: list[np.ndarray]) -> np.ndarray:
    """The table of the left-associated direct product of tables:
    the element (a1, a2, ..., ak) has the mixed-radix id
    ((a1*n2 + a2)*n3 + ...)*nk + ak. The orders multiply to at most
    MAX_TABLE_ORDER."""
    t = tables[0]
    for t2 in tables[1:]:
        n1, n2 = len(t), len(t2)
        # axes (a1, a2, b1, b2) of the product (a1*n2 + a2) * (b1*n2 + b2);
        # each id is below n1*n2 <= MAX_TABLE_ORDER, so the uint16 sum
        # cannot wrap
        high = _scaled_ids(n1, n2)[t]
        t = (high[:, None, :, None] + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    return t


def _scaled_ids(n: int, step: int) -> np.ndarray:
    """a * step for every id a < n, as uint16, multiplied in int64, since
    step itself may be 65,536 (C1 x C65536); n * step must be at most
    MAX_TABLE_ORDER, so each product fits."""
    return (np.arange(n) * step).astype(np.uint16)


def _rotations_and_flips(m: int, fold: int) -> np.ndarray:
    """Table of <r, s | r^m = 1, s^2 = r^fold, r^k s = s r^-k>, for fold
    0 or m/2, where every element is s^f r^k with f < 2 and k < m.

    The element s^f r^k has id f*m + k. Each block gathers rows of add,
    add[a, k2] = r^(a + k2), plus m where s remains; ids stay below 2m.
    """
    add = _cyclic_window(m)  # r^k1 r^k2
    k = np.arange(m)
    t = np.empty((2 * m, 2 * m), dtype=np.uint16)
    t[:m, :m] = add
    t[m:, :m] = add + m
    t[:m, m:] = add[-k % m] + m  # r^k1 s r^k2 = s r^(k2 - k1)
    t[m:, m:] = add[(fold - k) % m]  # s r^k1 s r^k2 = s^2 r^(k2 - k1)
    return t


def make_dihedral(n: int) -> GroupTable:
    """D_n of order 2n; id = flip*n + rotation.

    Its table is rows of the cyclic window table, written off the
    presentation <r, s | r^n = s^2 = 1, srs = r^-1>, the symmetries of a
    regular n-gon (n >= 3; C2 and C2 x C2 for n = 1, 2): a group, with
    identity r^0 at id 0, so the table is not checked.
    """
    if n < 1:
        raise InvalidOrderError(f"dihedral parameter must be >= 1, got {n}")
    _check_cap(2 * n, f"D{n}")
    return _wrap(_rotations_and_flips(n, 0), f"D{n}")


def make_dicyclic(n: int) -> GroupTable:
    """Dic_n of order 4n (n >= 2); Dic_2 is the quaternion group.

    Its table is rows of the cyclic window table, written off the
    presentation <a, b | a^2n = 1, b^2 = a^n, b^-1 a b = a^-1>, a group of
    order 4n (the unit quaternions generated by e^(i pi/n) and j), with
    identity a^0 at id 0, so the table is not checked.
    """
    if n < 2:
        raise InvalidOrderError(f"dicyclic parameter must be >= 2, got {n}")
    _check_cap(4 * n, f"Dic{n}")
    # b^2 = a^n folds the double flip back into the rotations
    return _wrap(_rotations_and_flips(2 * n, n), f"Dic{n}")


def _perm_table(p: np.ndarray) -> np.ndarray:
    """Table of the permutations in the rows of the uint16 array p, closed
    under p*q = p o q; the identity is the first row, as it is in
    lexicographic order. Its temporaries die before the table is wrapped.

    Row g of the table lists the ids of g o p_j, so the row of g*s is
    row(g)[row(s)], one gather. Generators are taken one at a time, each
    the least id not yet reached, and its row is read off the codes of its
    products: a permutation of d letters is coded by reading its letters
    as base-d digits. The ids reached before a generator s form a subgroup
    R whose rows are filled, and <R, s> is the union of the right cosets
    Rz, found breadth first from R by right multiplying by the generators.
    Row rz is row(r)[row(z)], so a new coset is filled by one take of R's
    rows through row(z), in blocks of rows; column 0 of those rows, rz
    times the identity, names them.
    """
    n, d = p.shape
    place = d ** np.arange(d - 1, -1, -1)
    lookup = np.zeros(d**d, dtype=np.uint16)
    lookup[p @ place] = np.arange(n, dtype=np.uint16)
    t = np.empty((n, n), dtype=np.uint16)
    t[0] = np.arange(n)
    # a sixteenth of _BLOCK_CELLS keeps each of a coset fill's two
    # temporaries under 128 KiB: blocks of _BLOCK_CELLS cells made them
    # 1.8 MB each on A7 and raised the peak RSS of a build of A7 by 0.7 MB
    step = max(1, _BLOCK_CELLS // 16 // n)
    reached, seen = [0], bytearray(n)
    seen[0] = True
    gens: list[int] = []
    while len(reached) < n:
        sub = np.array(reached)  # R, closed under the older generators
        s = seen.index(0)
        t[s] = lookup[p[s][p] @ place]  # digit k of p_s o p_j is p_s[p_j[k]]
        gens.append(s)
        reps = [0]  # an id in each coset reached; s is reached as 0*s
        for y in reps:
            row_y = t[y]
            for a in gens:
                z = row_y.item(a)
                if seen[z]:
                    continue  # seen holds whole cosets, so Rz is filled
                row = row_y.take(t[a])
                for lo in range(0, len(sub), step):
                    rows = t.take(sub[lo : lo + step], axis=0).take(row, axis=1)
                    coset = rows[:, 0]  # column 0 is r*z*e = r*z
                    t[coset] = rows
                    coset = coset.tolist()
                    for h in coset:
                        seen[h] = True
                    reached += coset
                reps.append(z)
    return t


def _permutations(n: int) -> np.ndarray:
    """Every permutation of 0..n-1, one per row, in lexicographic order, the
    order in which itertools lists them."""
    cells = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(cells, dtype=np.uint16, count=math.factorial(n) * n).reshape(-1, n)


def make_symmetric(n: int) -> GroupTable:
    """S_n on n letters, elements in lexicographic order. The product is
    composition of permutations, which is associative, with the identity
    permutation first: the table is not checked."""
    if n < 1:
        raise InvalidOrderError(f"symmetric degree must be >= 1, got {n}")
    _check_atoms_cap([("S", n)], f"S_{n}")
    return _wrap(_perm_table(_permutations(n)), f"S{n}")


def make_alternating(n: int) -> GroupTable:
    """A_n, the even permutations of n letters. They are closed under
    composition, which is associative, and the identity permutation is
    first: the table is not checked."""
    if n < 1:
        raise InvalidOrderError(f"alternating degree must be >= 1, got {n}")
    _check_atoms_cap([("A", n)], f"A_{n}")
    # a permutation is even when its inversion count is
    perms = _permutations(n)
    i, j = np.triu_indices(n, 1)
    even = (perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0
    return _wrap(_perm_table(perms[even]), f"A{n}")


def make_semidirect(
    normal: GroupTable, acting: GroupTable, action: list[list[int]] | tuple
) -> GroupTable:
    """Semidirect product N x| H for a supplied action of H on N.

    action[h] is the permutation of N's ids giving the automorphism applied
    by the acting element h. Each permutation must be an automorphism of N
    and h -> action[h] must itself be a homomorphism; both are checked
    exhaustively before any multiplication happens. The action comes from
    outside, so the table is then proven a group by _build, as a Cayley
    table is.
    """
    nn, nh = normal.order, acting.order
    recipe = f"semidirect({normal.recipe},{acting.recipe})"
    _check_cap(nn * nh, recipe)
    if not isinstance(action, (list, tuple)):
        raise InvalidActionError("the action must be a list of permutations")
    if len(action) != nh:
        listed = f"{len(action)} permutation{'s' * (len(action) != 1)}"
        raise InvalidActionError(
            f"the action lists {listed}, but the acting group has "
            f"{nh} element{'s' * (nh != 1)}"
        )
    for h, phi in enumerate(action):
        if (
            not isinstance(phi, (list, tuple))
            or set(map(type, phi)) - {int}
            or sorted(phi) != list(range(nn))
        ):
            raise InvalidActionError(
                f"action of element {h} is not a permutation of 0..{nn - 1}"
            )
    phi = np.array(action, dtype=np.uint16)
    tn, th = normal.table, acting.table
    # phi_h(x*y) against phi_h(x)*phi_h(y), for every h at once
    bad = np.argwhere(phi[:, tn] != tn[phi[:, :, None], phi[:, None, :]])
    if bad.size:
        h, x, y = map(int, bad[0])
        raise NotAutomorphismError(h, (x, y))
    # phi_{h1*h2} against phi_h1 o phi_h2
    bad = np.argwhere(phi[th] != phi[:, phi])
    if bad.size:
        raise NotHomomorphismError((int(bad[0][0]), int(bad[0][1])))
    # axes (n1, h1, n2, h2): (n1, h1)*(n2, h2) = (n1 * phi_h1(n2), h1*h2),
    # with id (n1 * phi_h1(n2)) * nh + h1*h2, as in make_direct_product
    left = _scaled_ids(nn, nh)[tn][np.arange(nn)[:, None, None], phi[None, :, :]]
    t = left[:, :, :, None] + th[None, :, None, :]
    return _build(t.reshape(nn * nh, nn * nh), recipe)


_WS = b" \t\n\r"  # the whitespace JSON allows between tokens
_TABLE_KEY = re.compile(rb'[ \t\n\r]*\{[ \t\n\r]*"table"[ \t\n\r]*:')


def _canonical_table(raw: bytes) -> np.ndarray | None:
    """The Cayley table in raw, the bytes of a file, as an n x n int32
    array when the file is canonical; None for any other file. Its cells
    are not yet range-checked: from_cayley_table narrows the array to
    uint16 once they are.

    A canonical file is {"table": [[...]]} or a bare [[...]] of n rows of n
    cells, each a nonnegative int with no leading zero and at most as many
    digits as n - 1. JSON whitespace may stand between tokens, but not
    inside the key or a number. Every canonical file is valid JSON that
    json reads as this same table, so the file gives what json.loads and
    from_cayley_table give, built here with no Python object per cell. A
    canonical file of more rows than the order cap raises SizeLimitError,
    as from_cayley_table would, before any cell is parsed. The byte checks
    run over blocks of _BLOCK_CELLS bytes, so none of their masks is the
    size of the file.
    """
    key = _TABLE_KEY.match(raw)
    head, tail = (b'{"table":', b"}") if key else (b"", b"")
    # all but the cells: the key, the brackets and the whitespace
    skeleton = raw.translate(None, b"0123456789,")
    bare = skeleton.translate(None, _WS)
    n, odd = divmod(len(bare) - len(head) - len(tail) - 2, 2)
    width = len(str(n - 1))  # 9 at most, so no cell reaches 2**31
    if odd or n < 1 or width > 9 or bare != head + b"[[" + b"][" * (n - 1) + b"]]" + tail:
        return None
    spaced = len(bare) < len(skeleton)
    compact = raw.translate(None, _WS) if spaced else raw
    if not compact.startswith(head + b"[[") or not compact.endswith(b"]]" + tail):
        return None
    if spaced:
        # the ends of the digit runs, counted once each: a view of
        # _BLOCK_CELLS + 1 bytes holds the _BLOCK_CELLS pairs that start in it
        runs = 0
        for v in _byte_blocks(raw, 1):
            digit = v - np.uint8(ord("0")) < 10
            runs += np.count_nonzero(digit[1:] < digit[:-1])
        if runs != n * n:
            return None  # whitespace inside a number splits it in two
    # n - 1 row breaks take every bracket between [[ and ]], so each row
    # holds only digits and commas
    rows = compact.split(b"],[")
    rows[0] = rows[0][len(head) + 2 :]
    rows[-1] = rows[-1][: len(rows[-1]) - len(tail) - 2]
    if len(rows) != n or any(r.count(b",") != n - 1 for r in rows):
        return None
    flat = b",".join(rows)
    del rows
    if _bad_cells(flat, width):
        return None
    _check_cap(n, "table")
    return np.fromstring(flat, dtype=np.int32, sep=",").reshape(n, n)


def _byte_blocks(data: bytes, overlap: int):
    """Read-only uint8 views of data, one starting every _BLOCK_CELLS bytes,
    each running overlap bytes into the next, so that every window of up
    to overlap + 1 bytes lies whole in the view where it starts."""
    c = np.frombuffer(data, np.uint8)
    for lo in range(0, len(c), _BLOCK_CELLS):
        yield c[lo : lo + _BLOCK_CELLS + overlap]


def _bad_cells(flat: bytes, width: int) -> bool:
    """Whether flat, the cells of a table joined by commas, holds an empty
    cell, a number with a leading zero or a number of more than width
    digits. flat holds only digits and commas. The masks run over
    _byte_blocks with width + 1 bytes of overlap, so that their
    temporaries stay within a few blocks; the ends are checked on their
    own, since no comma stands before the first cell or after the last."""
    comma, zero = ord(","), ord("0")
    if not flat or flat[0] == comma or flat[-1] == comma:
        return True  # an empty first or last cell
    if flat[0] == zero and flat[1:2] not in (b"", b","):
        return True  # a leading 0 in the first cell
    for v in _byte_blocks(flat, width + 1):
        sep = v == comma
        digit = ~sep
        if (sep[:-1] & sep[1:]).any():  # an empty cell
            return True
        if (sep[:-2] & (v[1:-1] == zero) & digit[2:]).any():  # a leading 0
            return True
        wide = digit[width:].copy()  # wide[i]: v[i..i + width] are all digits
        for k in range(1, width + 1):
            wide &= digit[width - k : len(v) - k]
        if wide.any():
            return True
    return False


def from_cayley_table(raw) -> GroupTable:
    """Validate an arbitrary square table and wrap it as a group.

    raw is a list of rows of ints, or a 2-D integer array such as
    _canonical_table reads from a file; the array's dtype already proves
    its cells are ints, so only their range is checked, and it is copied
    as uint16.
    If the two-sided identity e is not element 0, ids 0 and e are swapped
    so the 0-at-identity convention holds: a copy of the cells is mapped
    through the swap, and its rows 0 and e, then its columns 0 and e, are
    exchanged. The cells themselves stay as read, for _check_latin to word
    a rejection.
    """
    is_array = isinstance(raw, np.ndarray) and raw.ndim == 2 and raw.dtype.kind in "iu"
    if not is_array and not isinstance(raw, (list, tuple)):
        raise GroupValidationError("a Cayley table must be a list of rows")
    n = len(raw)
    if n < 1:
        raise InvalidOrderError("empty table")
    _check_cap(n, "table")
    cells = _array_cells(raw, n) if is_array else _table_cells(raw, n)
    try:
        e = _two_sided_identity(cells)
        if e is None:
            raise MissingIdentityError("table has no two-sided identity element")
        label, t = f"table({n})", cells
        if e != 0:
            swap = np.arange(n, dtype=np.uint16)
            swap[0], swap[e] = e, 0
            t = swap[cells]
            t[[0, e]] = t[[e, 0]]
            t[:, [0, e]] = t[:, [e, 0]]
            label += f"[id was {e}]"
        return _build(t, label)
    except GroupValidationError:
        _check_latin(cells)
        raise


def _table_cells(raw: list | tuple, n: int) -> np.ndarray:
    """The rows of raw as a uint16 array, once each is a list of n ints in
    0..n-1; otherwise an error names the first row that is not.

    Every cell's type is checked before numpy converts anything, so floats,
    strings and JSON booleans are rejected, not coerced. The cells are read
    into int32 and their range is checked there, so a cell past uint16 is
    refused, not wrapped; only a table that fails is searched row by row.
    """
    for i, r in enumerate(raw):
        if isinstance(r, (list, tuple)) and len(r) == n and set(map(type, r)) == {int}:
            continue
        # an earlier row holding an int out of range is named first
        if not isinstance(r, (list, tuple)):
            error = GroupValidationError(f"row {i} is not a list")
        elif len(r) != n:
            error = GroupValidationError(f"row {i} has length {len(r)}, expected {n}")
        else:
            error = _cell_error(i, r, n)
        raise _range_error(raw[:i], n) or error
    try:
        with warnings.catch_warnings():
            # numpy < 2 wraps an int past int32 with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            t = np.array(raw, dtype=np.int32)
    except (OverflowError, DeprecationWarning):  # past int32 is past n - 1 too
        raise _range_error(raw, n) from None
    if t.min() < 0 or t.max() >= n:
        raise _range_error(raw, n)
    return t.astype(np.uint16)


def _array_cells(raw: np.ndarray, n: int) -> np.ndarray:
    """A copy of raw, a 2-D integer array of n rows, as uint16, once it is
    n x n with every cell in 0..n-1; otherwise the error of _table_cells
    on its rows as lists. The range is checked on raw's own dtype, before
    the copy narrows it."""
    if raw.shape[1] != n:
        raise GroupValidationError(f"row 0 has length {raw.shape[1]}, expected {n}")
    if raw.min() < 0 or raw.max() >= n:
        raise _range_error((r.tolist() for r in raw), n)
    return raw.astype(np.uint16)


def _range_error(rows, n: int) -> GroupValidationError | None:
    """The error for the first of rows, lists of ints, that holds a cell
    outside 0..n-1, or None."""
    for i, r in enumerate(rows):
        if min(r) < 0 or max(r) >= n:
            return _cell_error(i, r, n)
    return None


def _cell_error(i: int, r, n: int) -> GroupValidationError:
    """The error naming the first cell of row i that is not an int in 0..n-1."""
    v = next(v for v in r if type(v) is not int or not 0 <= v < n)
    return GroupValidationError(f"row {i} holds {v!r}, outside 0..{n - 1}")


def _two_sided_identity(t: np.ndarray) -> int | None:
    """The least e with e*x = x = x*e for every x, or None. Any such e has
    e*0 = 0 = 0*e, so only those few candidates are compared in full."""
    ids = np.arange(len(t))
    for e in np.flatnonzero((t[:, 0] == 0) & (t[0] == 0)).tolist():
        if np.array_equal(t[e], ids) and np.array_equal(t[:, e], ids):
            return e
    return None


# ---------------------------------------------------------------------------
# subgroups, cosets, quotients


def _element_id(g: GroupTable, x) -> int:
    """x, refused unless it is an element id of g: a non-bool int in 0..|G|-1."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < g.order:
        raise InvalidOrderError(f"{x!r} is not an element id 0..{g.order - 1}")
    return x


def cyclic_subgroup(g: GroupTable, x: int) -> SubgroupSet:
    """The subgroup generated by a single element."""
    return SubgroupSet(tuple(sorted(g.powers(_element_id(g, x)))), generator=x)


def subgroup_from_elements(g: GroupTable, elems) -> SubgroupSet:
    """Check element ids, closure, identity and inverses, then wrap the set.

    A failure names the first element, in sorted order, whose inverse is
    missing or whose products escape the set.
    """
    got = sorted({_element_id(g, x) for x in elems})
    if 0 not in got:
        raise NotSubgroupError("subgroup must contain the identity 0")
    h = np.array(got)
    has_inv = np.isin(np.take(g.inv, h), h)
    closed = np.isin(g.table[np.ix_(h, h)], h)
    bad = np.flatnonzero(~(has_inv & closed.all(axis=1)))
    if bad.size:
        i = bad[0]
        if not has_inv[i]:
            raise NotSubgroupError(f"inverse of {got[i]} is missing from the set")
        b = got[np.argmin(closed[i])]
        raise NotSubgroupError(f"set is not closed: {got[i]}*{b} escapes it")
    generator = next((x for x in got if g.elt_order[x] == len(got)), None)
    return SubgroupSet(tuple(got), generator=generator)


def _left_coset_array(g: GroupTable, sub: SubgroupSet) -> np.ndarray:
    """The left cosets of H as one uint16 array, |G|/|H| rows of |H|: each
    row sorted, rows ordered by their minimal member.

    Row x of the gather table[:, H] is the coset xH. It is kept where x is
    its minimal member, and only the rows kept are sorted.
    """
    h, ids = list(sub.elements), np.arange(g.order)
    blocks = []
    for rows in _row_blocks(g.order, len(h)):
        block = g.table[rows, h]
        blocks.append(np.sort(block[block.min(axis=1) == ids[rows]], axis=1))
    return np.concatenate(blocks)


def left_cosets(g: GroupTable, sub: SubgroupSet) -> list[tuple[int, ...]]:
    """All left cosets x*H, each sorted, ordered by their minimal member."""
    return list(map(tuple, _left_coset_array(g, sub).tolist()))


def is_normal(g: GroupTable, sub: SubgroupSet) -> tuple[int, int] | None:
    """None when normal, else the first witness (x, h), in row-major order,
    with x*h*x^-1 outside."""
    h = list(sub.elements)
    member = np.zeros(g.order, dtype=bool)
    member[h] = True
    inv = np.array(g.inv)
    for rows in _row_blocks(g.order, len(h)):
        conj = g.table[g.table[rows, h], inv[rows, None]]
        bad = np.argwhere(~member[conj])
        if bad.size:
            x, k = bad[0]
            return (rows.start + int(x), h[k])
    return None


def conjugacy_classes(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(labels, reps): the class index of every element and the least
    member of each class, classes ordered by it, so class 0 is {e}.

    Classes are the orbits of conjugation x -> a^-1 x a by g.generators,
    one gather of the table each. The orbits are the components of the
    graph joining x to a^-1 x a for each of them: every round hooks the
    larger root of each edge onto the smaller and jumps every element to
    its root, so a root is the least member of its class.
    A central generator moves nothing, so an abelian group has singletons.
    """
    ids = np.arange(g.order)
    src, dst = [ids[:0]], [ids[:0]]  # an edge per element a generator moves
    for a in g.generators:
        conj = g.table[g.table[g.inv[a]], a]
        moved = np.flatnonzero(conj != ids)
        src.append(moved)
        dst.append(conj[moved])
    src, dst = np.concatenate(src), np.concatenate(dst)
    root = ids.copy()
    while True:
        lo, hi = np.minimum(root[src], root[dst]), np.maximum(root[src], root[dst])
        apart = lo != hi
        if not apart.any():
            break
        np.minimum.at(root, hi[apart], lo[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    reps, labels = np.unique(root, return_inverse=True)
    return labels, reps


def quotient_with_projection(
    g: GroupTable, sub: SubgroupSet
) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient group G/H plus the element -> coset id projection map.

    is_normal checks every conjugate first, and the cosets of a normal
    subgroup of a group form a group under xH * yH = xyH, with H itself,
    the coset of id 0, as identity: the quotient's table is not checked.
    """
    witness = is_normal(g, sub)
    if witness is not None:
        raise NotNormalError(witness)
    cosets = _left_coset_array(g, sub)  # by minimal member; identity coset first
    proj = np.empty(g.order, dtype=np.uint16)
    proj[cosets] = np.arange(len(cosets), dtype=np.uint16)[:, None]
    reps = cosets[:, 0]
    q = _wrap(proj[g.table[np.ix_(reps, reps)]], f"{g.recipe}/<order {len(sub)}>")
    return q, tuple(proj.tolist())


def quotient(g: GroupTable, sub: SubgroupSet) -> GroupTable:
    return quotient_with_projection(g, sub)[0]


# ---------------------------------------------------------------------------
# structure of abelian groups


def is_abelian(g: GroupTable) -> bool:
    """Whether g.generators commute pairwise: they generate the group, so
    then every pair of elements commutes."""
    t = g.table
    return all(t[a, b] == t[b, a] for a, b in itertools.combinations(g.generators, 2))


def is_cyclic(g: GroupTable) -> bool:
    return g.order in g.elt_order or g.order == 1


def abelian_basis(g: GroupTable) -> list[tuple[int, int]]:
    """Generators (element, order) splitting an abelian group into cyclics,
    orders the invariant factors largest first (each divides the previous).

    One greedy pass: for each factor d, the generator is the least y of
    order d whose powers y^(d/p), p a prime dividing d, all lie outside the
    span H chosen so far, i.e. <y> meets H only at e. If H is a summand
    whose complement has the factors left, d is the exponent of G/H, and
    that complement holds such a y. Then y + H has order d, the exponent
    of G/H, so <y + H> is a summand of G/H: H + <y> is direct, again a
    summand, and its complement has the factors left after d.
    """
    factors = invariant_factors(g)  # refuses a nonabelian group
    t, orders = g.table, np.array(g.elt_order)
    span = np.zeros(g.order, dtype=bool)
    span[0] = True
    out = []
    for d in reversed(factors):
        ys = np.flatnonzero(orders == d)
        free = np.ones(len(ys), dtype=bool)
        for p, _ in factorize(d):
            free &= ~span[_powers(t, ys, d // p)]
        y = int(ys[np.argmax(free)])
        span[t[np.flatnonzero(span)[:, None], g.powers(y)]] = True
        out.append((y, d))
    return out


def invariant_factors(g: GroupTable) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_k with product |G| (abelian only).

    They are read off the census of element orders. If the p-part of G is
    the sum of cyclic groups of orders p^e_i, the elements with x^(p^k) = e
    number p^c_k with c_k = sum_i min(k, e_i), so c_k - c_(k-1) of the
    e_i are at least k, and the largest c_k - c_(k-1) invariant factors
    each take one more factor p.
    """
    if not is_abelian(g):
        raise NotAbelianError(f"{g.recipe} is not abelian")
    orders = np.array(g.elt_order)
    factors: list[int] = []  # largest first
    for p, e in factorize(g.order):
        below = 0  # c_(k-1)
        for k in range(1, e + 1):
            c = round(math.log(np.count_nonzero(p**k % orders == 0), p))
            factors += [1] * (c - below - len(factors))  # k = 1 adds the most
            factors[: c - below] = [f * p for f in factors[: c - below]]
            below = c
    return factors[::-1]


_ATOM_RE = re.compile(r"(Dic|C|D|S|A)([0-9]+)")

_ATOM_MAKERS = {
    "C": make_cyclic,
    "D": make_dihedral,
    "Dic": make_dicyclic,
    "S": make_symmetric,
    "A": make_alternating,
}

# |C_k| = k, |D_k| = 2k and |Dic_k| = 4k
_ATOM_SCALE = {"C": 1, "D": 2, "Dic": 4}


def _atom_log2(atom: tuple[str, int]) -> float:
    """log2 of an atom's order, through lgamma for S and A (a degree too
    large for a float is clamped, which keeps the value a lower bound)."""
    kind, k = atom
    if kind in ("S", "A"):
        return math.lgamma(min(k, 10**300) + 1) / math.log(2) - (kind == "A" and k > 1)
    return math.log2(_ATOM_SCALE[kind] * k)


def _check_atoms_cap(atoms: list[tuple[str, int]], what: str) -> None:
    """_check_cap on the order of a direct product of atoms (kind, k).

    S_k and A_k of degree k > 20 have order above 2^64, past any cap, so
    the message reads the product's size off lgamma, and an absurd degree
    is refused at once; otherwise the order is multiplied out exactly.
    """
    if any(kind in ("S", "A") and k > 20 for kind, k in atoms):
        bits = math.floor(sum(map(_atom_log2, atoms)) - 1e-6)
        cap = max_group_order()
        raise SizeLimitError(f"{what} has order more than 2^{bits}, above the cap of {cap}")
    order = 1
    for kind, k in atoms:
        if kind in ("S", "A"):
            order *= math.factorial(k) // (2 if kind == "A" and k > 1 else 1)
        else:
            order *= _ATOM_SCALE[kind] * k
    _check_cap(order, what)


def _spec_int(digits: str, what: str) -> int:
    """The int a spec's ASCII digits spell; more than int() reads is past any cap."""
    digits = digits.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:
        raise SizeLimitError(
            f"{what[:12]}... has a {len(digits)}-digit parameter, "
            f"above the cap of {max_group_order()}"
        ) from None


def from_name(spec: str) -> GroupTable:
    """Build a group from a short expression: atoms C/D/Dic/S/A followed by
    a number in ASCII digits, joined by x for direct products.

    The order of the whole expression is checked against the cap before
    any factor is built. Each distinct atom is built once; a product is
    then one table, written in one left-associated mixed-radix pass over
    the atoms' tables (the ids and recipe of folding make_direct_product
    over them). A direct product of groups is a group, so that table is
    wrapped, not checked."""
    parts = spec.strip().split("x")
    if not parts or any(not p for p in parts):
        raise GroupSpecError(f"cannot parse group expression {spec!r}")
    atoms = []
    for part in parts:
        m = _ATOM_RE.fullmatch(part.strip())
        if m is None:
            raise GroupSpecError(
                f"cannot parse {part.strip()!r} in {spec!r}; expected one of "
                "Cn, Dn, Dicn, Sn, An"
            )
        atoms.append((m.group(1), _spec_int(m.group(2), part.strip())))
    _check_atoms_cap(atoms, spec.strip())
    made = {atom: _ATOM_MAKERS[atom[0]](atom[1]) for atom in dict.fromkeys(atoms)}
    factors = [made[atom] for atom in atoms]
    if len(factors) == 1:
        return factors[0]
    recipe = "x".join(g.recipe for g in factors)
    return _wrap(_product_table([g.table for g in factors]), recipe)
