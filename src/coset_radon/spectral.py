"""Characters, matrix representations and Fourier-side cross-checks.

Both kinds of table are read-only numpy arrays, as the Cayley table is.
Abelian character tables are kept in exponent form: with invariant factors
d_1 | ... | d_k and exponent L, a character is a tuple (c_1, ..., c_k) and
its value at x is the L-th root of unity with exponent sum(c_i * x_i * L/d_i)
mod L. CharacterTable.value_exponents holds every such exponent as one int64
array indexed [character, element], so every identity is checkable in
integer arithmetic, sums of roots of unity by CRT differences (_vanishing);
floats only appear in the numeric DFT, whose sums run in element order. A
matrix representation holds its images over one common denominator D as
two (|G|, d, d) integer arrays, the real and imaginary parts of D rho(x):
int64 under a bound that covers every product formed (_integer_dtype),
Python ints above it. Products, sums, conjugate transposes and traces are
then integer numpy operations, and each rank over Q(i) is half the
exactla.rank_exact of a realification (_rank), the package's one exact
integer elimination. A representation from outside is proven on the
generators S the group was built with, which generate it, |G| |S|
products in all (matrix_rep); the builtin quaternion reps carry their
construction's proof (quaternion_rep_set). Each keeps its table: every
function that takes a group and a rep refuses any other group. A coset
sum depends on the subgroup, not on the generator that traces it, so the
Fourier identity, the fixed-space analysis and the projection law all
read one generator per subgroup of prime order (_prime_homomorphisms).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .errors import (
    CosetRadonError,
    DimensionError,
    InvalidRepresentationError,
    UnsupportedGroupError,
    UnsupportedRepresentationError,
    read_json,
)
from .geodesics import Homomorphism, _family_subgroups
from .groups import GroupTable, _element_id, _row_blocks, abelian_basis, is_abelian

__all__ = [
    "CharacterTable",
    "FixedSpaceReport",
    "ForeignCharacterTableError",
    "ForeignRepresentationError",
    "GeodesicSumMatrix",
    "MatrixRep",
    "char_sum_check",
    "char_sum_check_characters",
    "char_value",
    "characters",
    "check_projection",
    "dft",
    "faithful_characters",
    "fixed_space_analysis",
    "fourier_radon_check",
    "geodesic_sum",
    "load_rep",
    "matrix_coefficient_vectors",
    "matrix_rep",
    "plancherel_defect",
    "quaternion_rep_set",
    "rep_to_dict",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# abelian character tables


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """All characters of an abelian group, in exponent form."""

    group: GroupTable
    factors: tuple[int, ...]  # invariant factors, ascending divisibility
    exponent: int
    basis: tuple[int, ...]  # generator ids aligned with factors
    coords: tuple[tuple[int, ...], ...]  # element -> coordinates
    characters: tuple[tuple[int, ...], ...]
    value_exponents: np.ndarray  # read-only int64, [char, element]


class ForeignCharacterTableError(CosetRadonError):
    """A character table was passed along with a group it was not built for."""


def characters(g: GroupTable) -> CharacterTable:
    """Character table of an abelian group; trivial character comes first."""
    if not is_abelian(g):
        raise UnsupportedGroupError(f"{g.recipe} is not abelian")
    gens = list(reversed(abelian_basis(g)))  # ascending orders
    factors = tuple(d for _, d in gens)
    basis = tuple(x for x, _ in gens)
    exponent = factors[-1] if factors else 1
    chars = tuple(itertools.product(*(range(d) for d in factors)))
    # the element prod_i basis[i]^combo[i] of every combo, in the order of chars
    elts = np.zeros(1, dtype=np.intp)
    for x, d in gens:
        elts = g.table[elts[:, None], g.powers(x, d)].ravel()
    if np.unique(elts).size != elts.size:
        raise AssertionError("abelian basis is not free; construction bug")
    if elts.size != g.order:
        raise AssertionError("abelian basis does not span; construction bug")
    where = np.empty(g.order, dtype=np.intp)
    where[elts] = np.arange(g.order)
    coords = tuple(chars[i] for i in where.tolist())
    # entry [char, x] is sum_i char_i * coords[x]_i * (exponent // d_i); each
    # term is below d_i * exponent <= |G|^2, so int64 holds the whole sum
    combos = np.array(chars, dtype=np.int64).reshape(len(chars), len(factors))
    weights = np.array([exponent // d for d in factors], dtype=np.int64)
    return CharacterTable(
        group=g,
        factors=factors,
        exponent=exponent,
        basis=basis,
        coords=coords,
        characters=chars,
        value_exponents=_frozen((combos * weights) @ combos[where].T % exponent),
    )


def char_value(ct: CharacterTable, char_index: int, x: int) -> complex:
    (i,) = _character_indices(ct, [char_index])
    e = int(ct.value_exponents[i, _element_id(ct.group, x)])
    return cmath.exp(2j * cmath.pi * e / ct.exponent)


def _roots(ct: CharacterTable) -> np.ndarray:
    """Root k is char_value's value at exponent k, bit for bit."""
    return np.array(
        [cmath.exp(2j * cmath.pi * k / ct.exponent) for k in range(ct.exponent)]
    )


def _sums_in_order(nrows: int, width: int, terms) -> np.ndarray:
    """Row sums of the nrows x width complex array terms(rows) returns for a
    block of rows, each added up left to right as Python's sum does, so they
    match an entry-by-entry sum bit for bit."""
    out = np.empty(nrows, dtype=complex)
    for rows in _row_blocks(nrows, width):
        out[rows] = np.add.accumulate(terms(rows), axis=1)[:, -1]
    return out


def faithful_characters(ct: CharacterTable) -> list[int]:
    """Indices of the characters whose kernel is trivial."""
    return np.flatnonzero((ct.value_exponents[:, 1:] != 0).all(axis=1)).tolist()


def dft(ct: CharacterTable, f) -> list[complex]:
    """Numeric Fourier coefficients sum_x f(x) chi(x), one per character."""
    vals = np.array([complex(v) for v in f], dtype=complex)
    if len(vals) != ct.group.order:
        raise DimensionError(
            f"function length {len(vals)}, expected {ct.group.order}"
        )
    roots = _roots(ct)
    return _sums_in_order(
        len(ct.characters), len(vals),
        lambda rows: roots[ct.value_exponents[rows]] * vals,
    ).tolist()


def plancherel_defect(ct: CharacterTable, f) -> float:
    """| (1/|G|) sum |f^(chi)|^2  -  sum |f(x)|^2 |, numerically."""
    f = list(f)
    coeffs = dft(ct, f)
    lhs = sum(abs(c) ** 2 for c in coeffs) / ct.group.order
    rhs = sum(abs(complex(v)) ** 2 for v in f)
    return abs(lhs - rhs)


def _vanishing(counts: np.ndarray, L: int) -> np.ndarray:
    """Per row of counts, whether sum_k counts[k] * zeta_L^k is 0, exactly.

    Write L = M R with R = rad(L) = p_1 ... p_r, and k = t M + j. zeta_L has
    degree phi(L) = M phi(R) over Q, so x^M - zeta_R is its minimal polynomial
    over Q(zeta_R): the sum vanishes iff every S_j = sum_t counts[t M + j]
    zeta_R^t does. On the CRT digits t_i = t mod p_i, zeta_R^t is the product
    of the zeta_{p_i}^(u_i t_i), u_i a unit mod p_i. For R = p R', zeta_p has
    degree p - 1 over Q(zeta_R'), so sum_a zeta_p^(u a) T_a with every T_a in
    Q(zeta_R') vanishes iff all T_a are equal: by induction on r, iff taking
    differences of neighbouring slices along every prime axis leaves zeros.
    Each difference at most doubles an entry, so entries stay below 2^r times
    the largest count and int64 is exact.
    """
    primes = exactla.prime_divisors(L)
    rad = math.prod(primes)
    digits = [np.arange(rad) % p for p in primes]
    # t in the C order of its digit tuples (t mod p_1, ..., t mod p_r)
    by_digits = np.argsort(np.ravel_multi_index(digits, primes))
    cube = counts.reshape(len(counts), rad, L // rad)[:, by_digits]
    cube = cube.reshape(len(counts), *primes, L // rad)
    for axis in range(1, len(primes) + 1):
        cube = np.diff(cube, axis=axis)
    return ~cube.reshape(len(counts), -1).any(axis=1)


def char_sum_check_characters(ct: CharacterTable, indices=None) -> bool:
    """sum over the listed characters of chi(x): |G| at identity, 0 elsewhere.

    indices are positions in ct.characters; anything but an int in that
    range raises DimensionError. For the full table this is the
    completeness identity; passing a proper subset should make it fail.
    Exact at every x: the value is a sum of roots of unity, and _vanishing
    decides it from the counts of the listed characters' exponents at x.
    """
    n, order = ct.group.order, ct.exponent
    idx = _character_indices(
        ct, range(len(ct.characters)) if indices is None else indices
    )
    # every character is 1 at the identity, so the sum there is len(idx)
    if len(idx) != n:
        return False
    for cols in _row_blocks(n - 1, n):
        exps = ct.value_exponents[:, 1:][:, cols][idx].T
        width = len(exps)
        # [x, e]: how many listed characters take exponent e at element x
        counts = np.bincount(
            (exps + order * np.arange(width)[:, None]).ravel(),
            minlength=width * order,
        ).reshape(width, order)
        if not _vanishing(counts, order).all():
            return False
    return True


def _character_indices(ct: CharacterTable, indices) -> list[int]:
    """indices as a list, each a position in ct.characters, or DimensionError."""
    count = len(ct.characters)
    idx = list(indices)
    for i in idx:
        if not isinstance(i, int) or isinstance(i, bool):
            raise DimensionError(f"character index {i!r} is not an int")
        if not 0 <= i < count:
            raise DimensionError(f"character index {i} is outside 0..{count - 1}")
    return idx


def _check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance no comparison can use: every difference is within
    NaN or infinity, and none is within a negative bound."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise CosetRadonError(f"tolerance {tolerance} is not finite and nonnegative")


def fourier_radon_check(
    g: GroupTable, f, tolerance: float = 1e-9, ct: CharacterTable | None = None
) -> bool:
    """Transform-then-DFT equals DFT-times-geodesic-sum, per character.

    For one generator gamma of each subgroup of prime order p
    (_prime_homomorphisms), the Fourier coefficient of
    x -> sum_t f(x gamma^t) at chi must be f^(chi) * sum_t chi(gamma^t).
    Every other generator gamma^k of that subgroup states the same
    identity: t -> kt permutes the t < p, so the sums over gamma^(kt)
    are the sums over gamma^t. A ct built for another group raises
    ForeignCharacterTableError.
    """
    _check_tolerance(tolerance)
    if ct is None:
        ct = characters(g)
    elif ct.group is not g:
        raise ForeignCharacterTableError("character table belongs to another group")
    vals = np.array([complex(v) for v in f], dtype=complex)
    fhat = np.array(dft(ct, vals))  # refuses f unless it has |G| values
    roots = _roots(ct)
    for hom in _prime_homomorphisms(g):
        p = hom.domain_order
        steps = g.powers(hom.image_generator, p)
        # row x: the orbit x * gen^t, t < p; row chi: chi at gen^t
        rf = _sums_in_order(g.order, p, lambda rows: vals[g.table[rows][:, steps]])
        isum = _sums_in_order(
            len(fhat), p, lambda rows: roots[ct.value_exponents[rows][:, steps]]
        )
        if (np.abs(np.array(dft(ct, rf)) - fhat * isum) > tolerance).any():
            return False
    return True


# ---------------------------------------------------------------------------
# matrix representations


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Exact matrix representation of the group it was validated on:
    rho(x) = (re[x] + i im[x]) / denominator, with re and im read-only
    (|G|, d, d) integer arrays and denominator the lcm of every entry's
    denominators. The arrays are int64 when _integer_dtype's bound covers
    the rep, else object arrays of Python ints."""

    group: GroupTable
    dim: int
    re: np.ndarray
    im: np.ndarray
    denominator: int
    declared_unitary: bool

    @property
    def group_order(self) -> int:
        return self.group.order


def _integer_dtype(order: int, dim: int, largest: int):
    """int64 when 2 d (|G| K)^2 < 2^63, with K the larger of the denominator
    D and the largest |part| of the entries of D rho; object otherwise.

    That bounds every integer the rep functions form, partial sums of
    numpy's matmul included. An entry of D rho is at most K, and a geodesic
    sum T of one period, m <= |G| terms, at most |G| K. A real or imaginary
    part of a product of two complex d x d matrices sums 2d products: at
    most 2 d K^2 for the product rule and unitarity, and 2 d (|G| K)^2 for
    check_projection's T T and (D rho(gen)) T, the largest.
    """
    return np.int64 if 2 * dim * (order * largest) ** 2 < 2**63 else object


def _times(a, b):
    """The product of two complex matrices, or stacks of them, each held as
    an (re, im) pair of integer arrays."""
    return a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0]


def _differs(a, b) -> np.ndarray:
    """Entrywise, whether the (re, im) pairs a and b differ."""
    return (a[0] != b[0]) | (a[1] != b[1])


def matrix_rep(g: GroupTable, images, unitary: bool) -> MatrixRep:
    """Validate images, one d x d matrix per element whose entries are each
    an int, a Fraction or an (re, im) pair of those: the identity's image,
    the product rule and, when declared, unitarity, each proven on the
    generators g.generators alone.

    The greedy closure that chose S = g.generators (groups._greedy_generators)
    closed {e} under right multiplication by S, so every y is a
    left-bracketed word s_1 ... s_k in S. If rho(e) = I and
    rho(x) rho(s) = rho(xs) for every x and every s in S, induction on k
    gives rho(x) rho(y) = rho(xy): with y = y's, rho(x) rho(y's) =
    rho(x) rho(y') rho(s) = rho(xy') rho(s) = rho(xy's). Every rho(y) is
    then a product of the rho(s), and a product of unitaries is unitary. So
    the checks cost |G| |S| products, not |G|^2. As in groups._check_latin,
    only a rejected rep is scanned in full, so that the error names the
    first broken pair (a, b), row by row, or the first non-unitary element.

    Over the common denominator D each check is an integer one: the product
    rule is (D rho(x)) (D rho(s)) = D (D rho(xs)), and with D rho = A + iB,
    rho rho^* = I is A A^T + B B^T = D^2 I and B A^T - A B^T = 0.
    """
    pair = (tuple, list)
    mats = [[[v if isinstance(v, pair) else (v, 0) for v in row] for row in m]
            for m in images]
    if len(mats) != g.order:
        raise InvalidRepresentationError(
            f"{len(mats)} images for a group of order {g.order}"
        )
    d = len(mats[0])
    if d == 0 or any(len(m) != d or any(len(row) != d for row in m) for m in mats):
        raise InvalidRepresentationError("images are not all square of one size")
    # every real part, then every imaginary part
    parts = np.moveaxis(np.array(mats, dtype=object), -1, 0).ravel().tolist()
    parts = [Fraction(v) for v in parts]
    den = math.lcm(*(v.denominator for v in parts))
    ints = [v.numerator * (den // v.denominator) for v in parts]
    dtype = _integer_dtype(g.order, d, max(den, *map(abs, ints)))
    re, im = np.array(ints, dtype=dtype).reshape(2, g.order, d, d)
    if (re[0] != den * np.eye(d, dtype=dtype)).any() or im[0].any():
        raise InvalidRepresentationError("image of the identity is not the identity")
    for s in g.generators:
        xs = g.table[:, s]
        lhs = _times((re, im), (re[s], im[s]))
        if _differs(lhs, (den * re[xs], den * im[xs])).any():
            raise InvalidRepresentationError(
                f"images break the product at pair {_first_broken_pair(g, re, im, den)}"
            )
    gens = list(g.generators)
    if unitary and _non_unitary(re[gens], im[gens], den).any():
        raise InvalidRepresentationError(
            f"image of {int(np.argmax(_non_unitary(re, im, den)))} is not unitary"
        )
    return MatrixRep(g, d, _frozen(re), _frozen(im), den, declared_unitary=unitary)


def _first_broken_pair(
    g: GroupTable, re: np.ndarray, im: np.ndarray, den: int
) -> tuple[int, int]:
    """The first (a, b), row by row, with rho(a) rho(b) != rho(ab)."""
    for rows in _row_blocks(g.order, g.order * re.shape[1] ** 2):
        # [a, b] compares D rho(a) D rho(b) with D D rho(ab), a in this block
        lhs = _times((re[rows, None], im[rows, None]), (re, im))
        ab = g.table[rows]
        bad = _differs(lhs, (den * re[ab], den * im[ab])).any(axis=(2, 3))
        if bad.any():
            a, b = np.argwhere(bad)[0].tolist()
            return rows.start + a, b
    raise AssertionError("no broken pair in a rejected rep; construction bug")


def _non_unitary(re: np.ndarray, im: np.ndarray, den: int) -> np.ndarray:
    """Per matrix of the stack (re + i im) / den, whether m m^* differs from I."""
    re_t, im_t = re.transpose(0, 2, 1), im.transpose(0, 2, 1)
    eye = np.eye(re.shape[1], dtype=re.dtype) * den**2
    product = re @ re_t + im @ im_t, im @ re_t
    return _differs(product, (eye, re @ im_t)).any(axis=(1, 2))


def _rank(re: np.ndarray, im: np.ndarray) -> int:
    """Rank over Q(i) of the integer matrix re + i im: half the rank_exact
    of its realification [[re, -im], [im, re]], which is similar over C to
    the block diagonal of the matrix and its conjugate."""
    real = np.block([[re, -im], [im, re]])
    return exactla.rank_exact(real.tolist(), real.shape[1]) // 2


@dataclass(frozen=True, eq=False)
class GeodesicSumMatrix:
    """I(rho, gamma) = sum_t rho(gamma(t)) = (re + i im) / denominator, with
    re and im read-only (d, d) integer arrays over the rep's denominator;
    hermitian by construction."""

    re: np.ndarray
    im: np.ndarray
    denominator: int


class ForeignRepresentationError(DimensionError):
    """A representation was passed along with a group it was not validated on."""


def _images(g: GroupTable, rep: MatrixRep) -> tuple[np.ndarray, np.ndarray]:
    """(rep.re, rep.im), refused unless rep was validated on g itself."""
    if rep.group_order != g.order:
        raise DimensionError("representation belongs to a different group order")
    if rep.group is not g:
        raise ForeignRepresentationError("representation belongs to another group")
    return rep.re, rep.im


def _prime_homomorphisms(g: GroupTable) -> list[Homomorphism]:
    """One homomorphism C_p -> G per subgroup of prime order p, on its
    generator; the trivial group has none.

    The other generators of a subgroup add nothing to fourier_radon_check,
    fixed_space_analysis or check_projection: each x^k generating <x> gives
    the same geodesic sums, and rho(x), rho(x^k) fix the same vectors, as
    each is a power of the other.
    """
    if g.order == 1:
        return []
    return [Homomorphism(len(s), s.generator) for s in _family_subgroups(g, "prime")]


def geodesic_sum(g: GroupTable, rep: MatrixRep, hom: Homomorphism) -> GeodesicSumMatrix:
    """sum_t rho(gen^t) over t < n, exactly.

    The powers of gen^-1 are the same multiset as those of gen, so the sum
    along the inverse generator is this one. For a unitary rep it is then
    the sum of the rho(gen^t)^*, self-adjoint; that is asserted, as a guard
    on a MatrixRep built without matrix_rep.
    """
    steps = g.powers(hom.image_generator, hom.domain_order)
    re, im = (part[steps].sum(axis=0) for part in _images(g, rep))
    if rep.declared_unitary:
        assert _self_adjoint(re, im), "geodesic sum is not self-adjoint"
    return GeodesicSumMatrix(_frozen(re), _frozen(im), rep.denominator)


def _self_adjoint(re: np.ndarray, im: np.ndarray) -> bool:
    return np.array_equal(re.T, re) and np.array_equal(im.T, -im)


def check_projection(g: GroupTable, rep: MatrixRep, hom: Homomorphism) -> bool:
    """I/n is the orthogonal projection onto the fixed space of rho(gen).

    gen^n = e, so n is a multiple of gen's order m and I/n = I_m/m, with I_m
    the sum over one period. With T = D I_m that is p = T / (m D), and each
    check is an integer one: p is idempotent (T T = m D T), self-adjoint,
    kills into the fixed space of the generator image
    ((D rho(gen)) T = D T), and has the rank of that fixed space,
    d - rank(rho(gen) - I). An idempotent's rank is its trace, so the last
    is tr T = m D (d - rank(rho(gen) - I)); it is read only once
    idempotence holds.
    """
    if not rep.declared_unitary:
        raise UnsupportedRepresentationError("projection check needs a unitary rep")
    gen = hom.image_generator
    m = g.elt_order[gen]
    total = geodesic_sum(g, rep, Homomorphism(m, gen))
    t, den = (total.re, total.im), rep.denominator
    if _differs(_times(t, t), (m * den * t[0], m * den * t[1])).any():
        return False
    if not _self_adjoint(*t):
        return False
    image = (rep.re[gen], rep.im[gen])
    if _differs(_times(image, t), (den * t[0], den * t[1])).any():
        return False
    shifted = image[0] - den * np.eye(rep.dim, dtype=image[0].dtype), image[1]
    return int(np.trace(t[0])) == m * den * (rep.dim - _rank(*shifted))


@dataclass(frozen=True)
class FixedSpaceReport:
    """Dimensions of the two distinguished subspaces of a representation."""

    dim: int
    fixed_span_dim: int  # span of all fixed vectors of rho(x), x != e
    kernel_dim: int  # intersection of the kernels of all prime geodesic sums
    dichotomy_ok: bool


def fixed_space_analysis(g: GroupTable, rep: MatrixRep) -> FixedSpaceReport:
    """For an irreducible rep the two spaces are 0 and everything, one way
    or the other; which way decides whether the rep contributes kernel.

    Both spaces are read off one generator per subgroup of prime order
    (_prime_homomorphisms). An x != e of order m has a prime p dividing m,
    and rho(x^(m/p)) fixes every vector rho(x) fixes, so the fixed vectors
    of the elements of prime order already span the fixed span.

    One rank gives both. For a unitary rep, the geodesic sum I_gamma of a
    generator gamma of order n is n times the orthogonal projection onto
    Fix rho(gamma): the average of rho over <gamma> is idempotent,
    self-adjoint, fixed by rho(gamma) and the identity on Fix rho(gamma).
    So ker I_gamma = (Fix rho(gamma))^perp, and the intersection of the
    kernels is (sum of the fixed spaces)^perp. With r the rank of the
    stacked sums, kernel_dim = d - r and fixed_span_dim = r.
    """
    if not rep.declared_unitary:
        raise UnsupportedRepresentationError("analysis needs a unitary rep")
    sums = [geodesic_sum(g, rep, hom) for hom in _prime_homomorphisms(g)]
    d = rep.dim
    r = _rank(
        np.reshape([s.re for s in sums], (-1, d)),
        np.reshape([s.im for s in sums], (-1, d)),
    )
    return FixedSpaceReport(
        dim=d, fixed_span_dim=r, kernel_dim=d - r, dichotomy_ok=r in (0, d)
    )


def char_sum_check(g: GroupTable, reps) -> bool:
    """sum_rho dim(rho) tr(rho(x)) = |G| at e, 0 elsewhere, exactly.

    The caller asserts the list is a complete set of irreducibles; the check
    is the standard completeness witness for that claim. The sum is taken
    over the lcm L of the reps' denominators, in Python ints.
    """
    reps = list(reps)
    lcm = math.lcm(*(rep.denominator for rep in reps))
    acc = np.zeros((2, g.order), dtype=object)
    for rep in reps:
        traces = np.trace(np.stack(_images(g, rep)), axis1=2, axis2=3)
        acc += traces.astype(object) * (rep.dim * (lcm // rep.denominator))
    want = np.zeros((2, g.order), dtype=object)
    want[0, 0] = g.order * lcm
    return np.array_equal(acc, want)


def matrix_coefficient_vectors(
    g: GroupTable, rep: MatrixRep
) -> tuple[np.ndarray, np.ndarray]:
    """The dim^2 functions x -> rho(x^-1)[i][j], as vectors on G in rows
    i dim + j, times rep.denominator and split into real and imaginary
    parts: two integer arrays of shape (dim^2, |G|)."""
    inv = list(g.inv)
    re, im = (part[inv].reshape(g.order, rep.dim**2).T for part in _images(g, rep))
    return re, im


# ---------------------------------------------------------------------------
# the quaternion group's irreducible representations


def quaternion_rep_set(g: GroupTable) -> list[MatrixRep]:
    """The four linear characters and the 2-dim irrep of the order-8
    dicyclic (quaternion) group, exactly, as MatrixReps.

    Any labelling will do: a is the least id of order 4 and b the least id
    of order 4 outside <a>, and b^m a^k (m < 2, k < 4) is placed at its id
    in the table. On make_dicyclic(2) that id is m*4 + k.

    The order census admits Q8 alone, so the images need no matrix_rep: in
    Q8 any a, b of order 4 with b outside <a> satisfy b^2 = a^2 and
    b a b^-1 = a^-1, and each element is b^m a^k exactly once. I =
    diag(i, -i) and J = [[0, 1], [-1, 0]] are unitary with J^2 = I^2 and
    J I J^-1 = I^-1, and each sign pair (alpha, beta) meets the same relations.
    """
    if g.order != 8 or sorted(g.elt_order) != [1, 2, 4, 4, 4, 4, 4, 4]:
        raise UnsupportedGroupError("not the quaternion group")
    a = g.elt_order.index(4)
    sub_a = g.powers(a)
    b = next(x for x in range(g.order) if g.elt_order[x] == 4 and x not in sub_a)
    where = g.table[np.ix_(g.powers(b, 2), sub_a)].ravel()  # b^m a^k, m*4 + k
    ids = [divmod(i, 4) for i in np.argsort(where).tolist()]
    # I, J and the identity as (re, im) pairs of integer matrices
    zero = np.zeros((2, 2), dtype=np.int64)
    one = np.eye(2, dtype=np.int64), zero
    mat_i = zero, np.diag([1, -1])
    mat_j = np.array([[0, 1], [-1, 0]]), zero
    powers_i = [one]
    for _ in range(3):
        powers_i.append(_times(powers_i[-1], mat_i))
    two = [_times(mat_j if m else one, powers_i[k]) for m, k in ids]
    image_sets = [tuple(map(np.array, zip(*two)))]  # (re, im) stacks
    for alpha, beta in itertools.product((1, -1), repeat=2):
        signs = np.array([alpha**m * beta**k for m, k in ids]).reshape(8, 1, 1)
        image_sets.append((signs, np.zeros_like(signs)))
    reps = [
        MatrixRep(g, len(re[0]), _frozen(re), _frozen(im), 1, declared_unitary=True)
        for re, im in image_sets
    ]
    # trivial first, 2-dim last: conventional reading order
    reps.sort(key=lambda r: (r.dim, (r.re[:, 0, 0] != 1).tolist()))
    return reps


# ---------------------------------------------------------------------------
# JSON round trip for representations


def rep_to_dict(rep: MatrixRep) -> dict:
    """The file form load_rep reads: each entry a cell [re_num, re_den,
    im_num, im_den], both parts in lowest terms."""
    den = rep.denominator

    def lowest(v: int) -> list[int]:
        k = math.gcd(v, den)
        return [v // k, den // k]

    images = {
        str(x): [
            [lowest(a) + lowest(b) for a, b in zip(row_re, row_im)]
            for row_re, row_im in zip(m_re, m_im)
        ]
        for x, (m_re, m_im) in enumerate(zip(rep.re.tolist(), rep.im.tolist()))
    }
    return {"dim": rep.dim, "images": images, "unitary": rep.declared_unitary}


def _is_square(m, dim: int) -> bool:
    return isinstance(m, list) and len(m) == dim and all(
        isinstance(row, list) and len(row) == dim for row in m
    )


def _is_cell(cell) -> bool:
    return (
        isinstance(cell, list) and len(cell) == 4
        and all(type(v) is int for v in cell) and cell[1] != 0 and cell[3] != 0
    )


def load_rep(source, g: GroupTable) -> MatrixRep:
    """Build a validated MatrixRep from a dict or a JSON file path."""
    if isinstance(source, (str, bytes)):
        data = read_json(source, InvalidRepresentationError)
    else:
        data = source
    try:
        dim = data["dim"]
        raw_images = data["images"]
        unitary = data["unitary"]
    except (KeyError, TypeError) as exc:
        raise InvalidRepresentationError(f"malformed representation file: {exc}")
    if (
        type(dim) is not int or dim < 1
        or not isinstance(raw_images, dict) or type(unitary) is not bool
    ):
        raise InvalidRepresentationError(
            "malformed representation file: dim must be a positive integer, "
            "images an object and unitary a boolean"
        )
    keys = [str(x) for x in range(g.order)]
    unexpected = sorted(raw_images.keys() - set(keys), key=str)
    if unexpected:
        raise InvalidRepresentationError(
            f"image key {unexpected[0]!r} is not an element id 0..{g.order - 1}"
        )
    images = []
    for x, key in enumerate(keys):
        m = raw_images.get(key)
        if m is None:
            raise InvalidRepresentationError(f"missing image for element {x}")
        if not _is_square(m, dim) or not all(_is_cell(c) for row in m for c in row):
            raise InvalidRepresentationError(
                f"image of {x} is not a {dim}x{dim} matrix of cells [re_num, "
                f"re_den, im_num, im_den], four ints with nonzero denominators"
            )
        images.append(
            [[(Fraction(a, b), Fraction(c, d)) for a, b, c, d in r] for r in m]
        )
    return matrix_rep(g, images, unitary=unitary)
