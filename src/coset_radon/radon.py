"""Radon systems: coset-sum rows, exact rank, kernels and witnesses.

A system has one row per geodesic and one column per group element; each
row is the coset it sums over. The rows are held as two read-only arrays in
compressed sparse row form, filled for a group by one sorted gather of the
Cayley table per subgroup, and every product and kernel check reads those
arrays directly. Injectivity of the transform is exactly "the 0/1 incidence
matrix A of these rows has full column rank over the rationals".

A group verdict is read off the centre of the group algebra, before any
coset row is built. Row xH meets column a exactly when a lies in xH, so
the Gram matrix is (A^T A)[a, b] = z(a^-1 b), with z = sum of 1_H over
the family: A^T A is multiplication by z in F[G]. Both families are closed
under conjugation, so z is central. centre.nullity finds the nullity m_0
of z mod P = exactla.P on class vectors, and the rank of A is |G| - m_0,
by this proof:

- z acts on each chi-isotypic block as omega_chi = sum over H of
  |H| dim V_chi^H / chi(1), a rational algebraic integer, so an integer in
  [0, S], S = sum over H of |H|.
- A^T A is symmetric, so prod over omega of (A^T A - omega) = 0 over Z
  and mod P. The omega are distinct integers below S < P, so A^T A is
  diagonalizable mod P with nullity m_0 (omega = 0's multiplicity), as
  over Q: rank_P(A) >= rank_P(A^T A) = |G| - m_0 = rank_Q(A) >= rank_P(A).
- S < P. A non-identity element lies in at most one subgroup of prime
  order, so S <= 2(|G| - 1) for the prime family. Distinct maximal cyclic
  subgroups share no generator, so S <= (|G| - 1) max m/phi(m) over
  m <= |G| for the maximal one. At groups.MAX_TABLE_ORDER that maximum is
  at m = 30030, and S < 341,670, far below P = 33,554,393.
- The omega are distinct mod P and z is diagonalizable mod P, so the
  minimal polynomial of z mod P is prod over omega of (x - omega).
- delta_e generates F_P[G], since a = a delta_e, and z is central, so
  q(z) delta_e = 0 gives q(z) a = a q(z) delta_e = 0 for every a: the
  Krylov sequence delta_e, z delta_e, ... stops at that polynomial.
- The idempotent e_0 = prod over omega != 0 of (z - omega)/(-omega)
  projects onto the kernel of z, and multiplication by it has trace
  m_0 = |G| e_0(e). Its denominators divide a product of omega in
  (0, S], all below P, so |G| e_0(e) mod P is m_0, because m_0 <= |G| < P.

One route, _group_verdict, answers a family for is_injective,
decide_system, kernel and the CLI. The prime family's z and row count
are read off the element orders (centre's docstring); the maximal family
is listed once, or read off the system build_system made. One size rule
keeps a family on its rows: one whose product by z would read more cells,
|support z| x classes, than its rows hold, rows x |G|. Rows are otherwise
read only for a kernel of a deficient verdict, --matrix-csv, flows and
hand-built systems, through one elimination mod P that the system keeps:
the reduced echelon basis, pivoting from the right, whose length on a
family is its rank over Q by the proof above. Wherever m_0 and the rows'
rank are both known, the rank must be |G| - m_0, or an AssertionError is
raised.

Any other system (a flow, one built by hand, or a dataclasses.replace
copy, which drops the family) is answered from its rows alone. A full
rank mod P certifies, and a deficit mod P is proven by the kernel, which
kernel() also returns: the kernel mod P read off the reduced basis,
lifted to rationals and summed back exactly over every row. The lift has
n - rank_P independent vectors in reduced row-echelon form and rational
rank is at least rank_P, so a lift that passes is the unique reduced
kernel basis; one that fails falls back to exactla.rational_nullspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from . import centre, exactla
from .errors import (
    DimensionError,
    InvalidOrderError,
    InvalidVariantError,
    NoGeodesicsError,
    NotCoprimeError,
    NotCyclicError,
    UnsupportedGroupError,
)
from .geodesics import (
    _check_family,
    _family_subgroups,
    _geodesics_for,
    homomorphisms_cn,
)
from .groups import (
    _BLOCK_CELLS,
    GroupTable,
    SubgroupSet,
    _element_id,
    _left_coset_array,
    is_abelian,
    is_cyclic,
    make_direct_product,
)

__all__ = [
    "InjectivityVerdict",
    "KernelBasis",
    "RadonSystem",
    "apply",
    "build_system",
    "composite_consistency",
    "dimension_bound_check",
    "BoundCheck",
    "group_sum_from_radon",
    "is_injective",
    "kernel",
    "kernel_witness_cyclic",
    "kernel_witness_product",
    "reconstruct_all",
    "reconstruct_cpxcp",
]

VARIANTS = ("prime", "maximal")


@dataclass(frozen=True, eq=False)
class RadonSystem:
    """Rows (geodesics or flow orbits) and the columns each one sums over,
    held in compressed sparse row form.

    Row i sums f over indices[indptr[i]:indptr[i + 1]], a nonempty sorted
    multiset of columns: a coset for a geodesic, the points an orbit visits
    (with multiplicity) for a flow. Both arrays are read-only. A group
    system's indices are uint16 ids, as in the Cayley table; a flow
    system's are int32, and it keeps each row's orbit start state in
    starts. matrix and rows are built on every access.

    family is the tuple of subgroups build_system listed, whose cosets are
    the rows, a block per subgroup. Only build_system sets it: it is no
    constructor argument, and dataclasses.replace drops it. Any system
    without one (a flow, or a group system built by hand) is answered from
    its rows alone. _echelon, the rows' reduced echelon basis mod
    exactla.P, is computed on first access and kept read-only.
    """

    group: GroupTable | None
    variant: str
    indptr: np.ndarray
    indices: np.ndarray
    ncols: int
    starts: np.ndarray | None = None
    family: tuple[SubgroupSet, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.starts):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def nrows(self) -> int:
        return len(self.indptr) - 1

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense integer matrix."""
        return tuple(tuple(row.tolist()) for row in _array_rows(self))

    @property
    def rows(self) -> tuple:
        """A Geodesic record per row of a group system; the (a, b) start
        state of each row's orbit for a flow system."""
        if self.group is None:
            return tuple(map(tuple, self.starts.tolist()))
        if self.family is None:
            raise InvalidVariantError("only a system build_system made has geodesics")
        return tuple(_geodesics_for(self.group, self.family))

    @cached_property
    def _echelon(self) -> np.ndarray:
        echelon = exactla.echelon_mod(_array_rows(self), self.ncols, exactla.P)
        echelon.flags.writeable = False
        return echelon


def _indptr(lengths) -> np.ndarray:
    """Row starts, plus the end, for rows of the given lengths."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _array_rows(sys: RadonSystem):
    """The dense integer rows, one at a time, as int64 array views: entry j
    counts j in the row's columns. They are scattered from a slice of indices
    by one np.bincount per chunk of exactla.CHUNK_ROWS rows; a chunk is
    built only when its first row is read."""
    n, step = sys.ncols, exactla.CHUNK_ROWS
    for lo in range(0, sys.nrows, step):
        bounds = sys.indptr[lo : lo + step + 1]
        k = len(bounds) - 1
        flat = np.repeat(np.arange(k, dtype=np.int64) * n, np.diff(bounds))
        flat += sys.indices[bounds[0] : bounds[-1]]
        yield from np.bincount(flat, minlength=k * n).reshape(k, n)


def _row_sums(sys: RadonSystem, vectors: np.ndarray) -> np.ndarray:
    """Exact sums of each vector over each row's columns, one row of the
    result per vector.

    vectors is a 2-D array, one vector per row: int64, or objects (Python
    ints or Fractions), which are summed as they are. An int64 array whose
    largest magnitude times the longest row reaches 2^63, past which a
    partial sum could wrap, is summed on Python ints instead.
    """
    longest = int(np.diff(sys.indptr).max(initial=0))
    if vectors.dtype != object and vectors.size:
        if int(np.abs(vectors).max()) * longest >= 2**63:
            vectors = vectors.astype(object)
    return np.add.reduceat(vectors[:, sys.indices], sys.indptr[:-1], axis=1)


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Kernel basis vectors in reduced row-echelon form, lowest terms, held
    as integer codes into the distinct values they take: entry j of vector
    i is values[codes[i, j]].

    values is ascending and holds only values that occur, so two bases are
    equal exactly when their codes and values are. vectors, the Fraction
    tuples, is built on first access and then kept; entry_strings writes
    each distinct value once.
    """

    codes: np.ndarray
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        self.codes.flags.writeable = False

    @classmethod
    def from_vectors(cls, vectors) -> KernelBasis:
        """The basis of the given rational vectors, all of one length."""
        values = sorted(map(Fraction, set(chain.from_iterable(vectors))))
        index = {v: i for i, v in enumerate(values)}
        codes = np.array(
            [[index[v] for v in vec] for vec in vectors],
            dtype=np.min_scalar_type(max(len(values) - 1, 0)),
        )
        width = len(vectors[0]) if vectors else 0
        return cls(codes.reshape(len(vectors), width), tuple(values))

    @property
    def dim(self) -> int:
        return len(self.codes)

    @cached_property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basis vectors as tuples of Fractions, one shared object per
        distinct value."""
        table = np.empty(len(self.values), dtype=object)
        table[:] = self.values
        return tuple(map(tuple, table[self.codes].tolist()))

    def entry_strings(self) -> list[list[str]]:
        """str() of every entry, one list per vector: each distinct value is
        written once and gathered by the codes."""
        text = np.array([str(v) for v in self.values], dtype=object)
        return text[self.codes].tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelBasis):
            return NotImplemented
        return self.values == other.values and np.array_equal(self.codes, other.codes)


@dataclass(frozen=True)
class InjectivityVerdict:
    """A verdict, all of it read off rank, the rank over Q: kernel_dim is
    order - rank; injective is rank == order, with method
    "modular-full-rank", else method is "exact-elimination";
    frobenius_complement is rank < order for the prime family, which holds
    exactly when G is a Frobenius complement, and None for any other."""

    order: int
    variant: str
    rows: int
    rank: int
    kernel_dim: int
    injective: bool
    frobenius_complement: bool | None
    method: str


def build_system(g: GroupTable, variant: str = "prime") -> RadonSystem:
    """The system of the chosen geodesic family: one coset per row, each
    subgroup's cosets from one sorted gather of the table."""
    return _build_system(g, variant, _family_subgroups(g, variant))


def _build_system(g: GroupTable, variant: str, subs) -> RadonSystem:
    """build_system(g, variant), on its family subs already listed."""
    sizes = [len(sub) for sub in subs]
    sys = RadonSystem(
        group=g,
        variant=variant,
        indptr=_indptr(np.repeat(sizes, [g.order // h for h in sizes])),
        indices=np.concatenate([_left_coset_array(g, sub).ravel() for sub in subs]),
        ncols=g.order,
    )
    object.__setattr__(sys, "family", tuple(subs))
    return sys


def apply(sys: RadonSystem, f) -> tuple:
    """Exact matrix-vector product: one coset sum per row."""
    values = list(f)
    if len(values) != sys.ncols:
        raise DimensionError(f"function has length {len(values)}, expected {sys.ncols}")
    arr = np.empty((1, sys.ncols), dtype=object)
    arr[0] = values
    return tuple(_row_sums(sys, arr)[0].tolist())


def kernel(sys: RadonSystem) -> KernelBasis:
    """Exact rational kernel in reduced row-echelon form: empty when the
    family's verdict or a full rank mod exactla.P certifies, else lifted
    from the system's elimination mod P and summed back exactly over every
    row, so a KernelBasis in hand is a certificate."""
    if sys.family is None:
        injective = len(sys._echelon) == sys.ncols
    else:
        verdict, _ = _group_verdict(sys.group, sys.variant, kernel=True, sys=sys)
        injective = verdict.injective
    return _NO_KERNEL if injective else _kernel(sys)


def _kernel(sys: RadonSystem) -> KernelBasis:
    """The kernel of rows deficient mod exactla.P: the kernel mod P of the
    system's echelon basis, lifted to rationals, or, when the lift fails or
    does not annihilate every row exactly, exactla.rational_nullspace."""
    p = exactla.P
    # the lift writes over the kernel mod P it is given, so it gets a fresh one
    lifted = exactla.lift_nullspace(exactla.nullspace_mod(sys._echelon, p), p)
    if lifted is not None and _annihilates(sys, lifted[2]):
        return KernelBasis(*lifted[:2])
    vectors = exactla.rational_nullspace(
        (row.tolist() for row in _array_rows(sys)), sys.ncols
    )
    scaled = np.array([_integer_multiple(vec) for vec in vectors], dtype=object)
    if not _annihilates(sys, scaled.reshape(-1, sys.ncols)):
        raise AssertionError("kernel vector fails exact annihilation check")
    return KernelBasis.from_vectors(vectors)


def _annihilates(sys: RadonSystem, scaled) -> bool:
    """Whether every integer vector, a row of the 2-D array scaled, sums to
    0 over every row's columns, checked a block of vectors at a time."""
    step = max(1, _BLOCK_CELLS // max(1, len(sys.indices)))
    return not any(
        _row_sums(sys, scaled[lo : lo + step]).any()
        for lo in range(0, len(scaled), step)
    )


def _integer_multiple(vec) -> list[int]:
    """A rational vector times the lcm of its denominators, as ints."""
    den = math.lcm(*(v.denominator for v in vec))
    return [v.numerator * (den // v.denominator) for v in vec]


_NO_KERNEL = KernelBasis.from_vectors(())


def _make_verdict(n: int, variant: str, rows: int, rank: int) -> InjectivityVerdict:
    frob = (rank < n) if variant == "prime" else None
    method = "modular-full-rank" if rank == n else "exact-elimination"
    return InjectivityVerdict(
        order=n, variant=variant, rows=rows, rank=rank, kernel_dim=n - rank,
        injective=rank == n, frobenius_complement=frob, method=method,
    )


def _rows_verdict(sys: RadonSystem) -> InjectivityVerdict:
    """The verdict on rows alone: their rank mod exactla.P when it is
    full, else n less the dimension of the proven kernel."""
    n = sys.ncols
    rank = n if len(sys._echelon) == n else n - _kernel(sys).dim
    return _make_verdict(n, sys.variant, sys.nrows, rank)


def _group_verdict(
    g: GroupTable, variant: str, kernel: bool = False, sys: RadonSystem | None = None
) -> tuple[InjectivityVerdict, RadonSystem | None]:
    """The verdict on g's family, and its system if one was given or built.

    sys, when given, is the family's system from build_system, whose family
    is read instead of listed again. The verdict is |G| - m_0 unless the
    size rule keeps the family on its rows, whose rank mod exactla.P it
    then is. kernel asks for the rows a kernel needs, so a deficient
    verdict reads them too, and their rank must be |G| - m_0."""
    _check_family(g, variant)
    subs = sys.family if sys else None
    if variant == "prime":
        z, rows = centre.prime_element(g)
    else:
        subs = subs or _family_subgroups(g, variant)
        z, rows = centre.central_element(g, subs), sum(g.order // len(s) for s in subs)
    n, m0 = g.order, centre.nullity(g, z, rows)
    if m0 == 0 or (m0 is not None and not kernel):
        return _make_verdict(n, variant, rows, n - m0), sys
    sys = sys or _build_system(g, variant, subs or _family_subgroups(g, variant))
    rank = len(sys._echelon)
    if m0 is not None and rank != n - m0:
        raise AssertionError(f"rows of rank {rank} mod P against |G| - m_0 = {n - m0}")
    return _make_verdict(n, variant, rows, rank), sys


def decide_system(sys: RadonSystem) -> tuple[int, int, str]:
    """(rank, kernel_dim, method): _group_verdict on a family, else the
    rank mod exactla.P of the rows when full, or n less the dimension of
    their proven kernel."""
    if sys.family is None:
        v = _rows_verdict(sys)
    else:
        v = _group_verdict(sys.group, sys.variant, sys=sys)[0]
    return v.rank, v.kernel_dim, v.method


def is_injective(g: GroupTable, variant: str = "prime") -> InjectivityVerdict:
    """Injectivity verdict for the chosen variant.

    For the prime variant, noninjectivity coincides with G being a Frobenius
    complement, so that flag is reported as the definitional restatement of
    the verdict; the maximal variant carries no such flag.
    """
    return _group_verdict(g, variant)[0]


def group_sum_from_radon(sys: RadonSystem, values) -> Fraction:
    """Recover the total mass of f from transform values alone.

    The cosets of any one subgroup partition the group, so summing that
    subgroup's rows gives the plain sum of f. (In point-indexed form this is
    the 1/n-weighted identity; deduplicated rows absorb the factor n.) The
    first subgroup of a built system's family gives the first block.
    """
    if sys.family is None:
        raise InvalidVariantError("group sum needs a system build_system made")
    vals = list(values)
    if len(vals) != sys.nrows:
        raise DimensionError(f"got {len(vals)} values for {sys.nrows} rows")
    return Fraction(sum(vals[: sys.ncols // len(sys.family[0])]))


def _elementary_square_prime(g: GroupTable) -> int:
    """p when G is C_p x C_p (order p^2, exponent p), else raises."""
    n = g.order
    p = math.isqrt(n)
    if p * p != n or not exactla.is_prime(p):
        raise UnsupportedGroupError(f"order {n} is not the square of a prime")
    if not is_abelian(g) or any(g.elt_order[x] != p for x in range(1, n)):
        raise UnsupportedGroupError("group is not elementary abelian of rank 2")
    return p


def reconstruct_cpxcp(sys: RadonSystem, values, x: int) -> Fraction:
    """Closed-form inversion on C_p x C_p from prime-variant coset sums.

    With rows deduplicated to one per coset, each of the p+1 subgroup
    directions contributes its coset through x once; those sums count f(x)
    p+1 times and everything else once, so subtracting the total mass and
    dividing by p isolates f(x), on the prime system build_system made.
    Only the p+1 entries of indices equal to x are read.
    """
    p, vals, total = _cpxcp_values(sys, values)
    hits = np.flatnonzero(sys.indices == _element_id(sys.group, x)) // p
    return (Fraction(sum(vals[i] for i in hits.tolist())) - total) / p


def reconstruct_all(sys: RadonSystem, values) -> tuple[Fraction, ...]:
    """reconstruct_cpxcp at every element, reading values once."""
    p, vals, total = _cpxcp_values(sys, values)
    # a stable sort keeps each element's rows in order
    through = (np.argsort(sys.indices, kind="stable") // p).reshape(-1, p + 1).tolist()
    return tuple((Fraction(sum(vals[i] for i in hits)) - total) / p for hits in through)


def _cpxcp_values(sys: RadonSystem, values) -> tuple[int, list, Fraction]:
    """(p, the values as a list, the total mass) for a reconstruction on
    C_p x C_p, once the system, the group and the value count are checked.
    Every row of that prime system holds p entries, so position k of
    indices lies in row k // p."""
    if sys.variant != "prime" or sys.family is None:
        raise InvalidVariantError("reconstruction needs build_system's prime system")
    p = _elementary_square_prime(sys.group)
    vals = list(values)
    return p, vals, group_sum_from_radon(sys, vals)  # one value per row, checked


def kernel_witness_cyclic(g: GroupTable) -> tuple[Fraction, ...]:
    """A nonzero function on a cyclic group killed by every prime coset sum.

    Writing each element as gen^t, the witness is the product over the prime
    power factors q = p^k of |G| of the factor delta_0 - delta_{q/p} applied
    to t mod q. The result is verified against the prime system before being
    returned.
    """
    if g.order < 2:
        raise NoGeodesicsError("the trivial group has no kernel witness")
    if not is_cyclic(g):
        raise NotCyclicError(f"{g.recipe} is not cyclic")
    n = g.order
    gen = g.elt_order.index(n)
    factors = [(p, p**e) for p, e in exactla.factorize(n)]
    witness = [Fraction(0)] * n
    for t, cur in enumerate(g.powers(gen)):
        # the factor for q is 1 where t = 0, -1 where t = q/p, else 0 (mod q)
        signs = ({0: 1, q // p: -1}.get(t % q, 0) for p, q in factors)
        witness[cur] = Fraction(math.prod(signs))
    if all(v == 0 for v in witness):
        raise AssertionError("cyclic witness degenerated to zero")
    image = apply(build_system(g, "prime"), witness)
    if any(image):
        raise AssertionError("cyclic witness fails annihilation check")
    return tuple(witness)


def kernel_witness_product(
    w1, w2, g1: GroupTable, g2: GroupTable
) -> tuple[tuple[Fraction, ...], GroupTable]:
    """Product witness f(x1, x2) = w1(x1) * w2(x2) on G1 x G2.

    Requires coprime orders; the factor kernels only glue into a product
    kernel when no prime is shared. Returns the witness together with the
    product group it lives on, verified by exact application.
    """
    if math.gcd(g1.order, g2.order) != 1:
        raise NotCoprimeError(g1.order, g2.order)
    v1 = list(w1)
    v2 = list(w2)
    if len(v1) != g1.order or len(v2) != g2.order:
        raise DimensionError("witness lengths must match the factor orders")
    product = make_direct_product(g1, g2)
    # the element (i1, i2) of the product has id i1 * |G2| + i2
    witness = [Fraction(a) * Fraction(b) for a in v1 for b in v2]
    image = apply(build_system(product, "prime"), witness)
    if any(image):
        raise AssertionError("product witness fails annihilation check")
    return tuple(witness), product


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the cyclic-subgroup counting bound."""

    lhs: Fraction
    rhs: Fraction
    bound_holds: bool
    subgroup_count: int


def dimension_bound_check(g: GroupTable) -> BoundCheck:
    """Counting bound: sum of 1/|H| over the prime-order cyclic subgroups S
    against 1 + (|S|-1)/|G|. When the left side is strictly smaller, the
    prime system has fewer independent rows than |G|, certifying a kernel.

    Both sides are read off the element orders (centre.prime_element): the
    family has |G|/|H| rows per subgroup, so the left side is rows/|G|, and
    |S| = z(e), the number of subgroups that hold the identity."""
    if g.order < 2:
        raise NoGeodesicsError("the bound needs a nontrivial group")
    z, rows = centre.prime_element(g)
    count = int(z[0])
    lhs = Fraction(rows, g.order)
    rhs = 1 + Fraction(count - 1, g.order)
    return BoundCheck(lhs=lhs, rhs=rhs, bound_holds=lhs < rhs, subgroup_count=count)


def composite_consistency(g: GroupTable, n: int, functions) -> bool:
    """Whether each homomorphism gamma of composite length n = k*m, m its
    least prime, meets its case's identity on the given rational functions:
    length-n sums are m times length-k sums if gamma^k = e, else 1/m times
    the length-n orbit sums of the length-m sums along gamma^k. Exact, in
    int64 while m*n times the largest scaled value is below 2^63. Vacuously
    true with no homomorphism; verify.suite_lemma_prime proves the lemma.
    """
    if n < 4 or exactla.is_prime(n):
        raise InvalidOrderError(f"composite length required, got {n}")
    values = _integer_columns(g, functions)
    m = exactla.factorize(n)[0][0]
    k = n // m
    if int(np.abs(values).max(initial=0)) * m * n >= 2**63:
        values = values.astype(object)

    def orbit_sums(vals: np.ndarray, gen: int, length: int) -> np.ndarray:
        """Row x of the result sums the rows x gen^t of vals, t < length."""
        return vals[g.table[:, g.powers(gen, length)]].sum(axis=1)

    for gen in (hom.image_generator for hom in homomorphisms_cn(g, n)):
        long_sums = orbit_sums(values, gen, n)
        gk = g.power(gen, k)
        if gk == 0:
            same = long_sums == m * orbit_sums(values, gen, k)
        else:
            same = m * long_sums == orbit_sums(orbit_sums(values, gk, m), gen, n)
        if not same.all():
            return False
    return True


def _integer_columns(g: GroupTable, functions) -> np.ndarray:
    """The functions, each rescaled to integers by _integer_multiple, one
    column per function: int64 when every value fits, else Python ints."""
    scaled = []
    for f in functions:
        vals = [v if type(v) in (int, Fraction) else Fraction(v) for v in f]
        if len(vals) != g.order:
            raise DimensionError(f"function length {len(vals)}, expected {g.order}")
        scaled.append(_integer_multiple(vals))
    top = max((abs(v) for vec in scaled for v in vec), default=0)
    dtype = np.int64 if top < 2**63 else object
    return np.array(scaled, dtype=dtype).reshape(-1, g.order).T
