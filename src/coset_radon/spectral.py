"""Characters, matrix representations and Fourier-side cross-checks.

Abelian character tables are kept in exponent form: with invariant factors
d_1 | ... | d_k and exponent L, a character is a tuple (c_1, ..., c_k) and
its value at x is the L-th root of unity with exponent sum(c_i * x_i * L/d_i)
mod L. That keeps every identity checkable in integer arithmetic; floats
only appear in the numeric DFT. Matrix representations carry exact complex
rational entries (GaussianRational), which is enough for the quaternion
group's 2-dimensional representation and all permutation-style examples.
"""

from __future__ import annotations

import cmath
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .errors import (
    DimensionError,
    InvalidRepresentationError,
    UnsupportedGroupError,
    UnsupportedRepresentationError,
)
from .geodesics import Homomorphism, homomorphisms_cn
from .groups import GroupTable, abelian_basis, is_abelian

__all__ = [
    "CharacterTable",
    "FixedSpaceReport",
    "GaussianRational",
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


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n2,
            (self.im * o.re - self.re * o.im) / n2,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_I = GaussianRational(0, 1)

Matrix = tuple[tuple[GaussianRational, ...], ...]


def _mat_identity(d: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(d)) for i in range(d)
    )


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    cols = len(b[0])
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), _ZERO)
            for j in range(cols)
        )
        for i in range(d)
    )


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def _mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(a: Matrix, s) -> Matrix:
    return tuple(tuple(x * s for x in row) for row in a)


def _mat_conjt(a: Matrix) -> Matrix:
    d = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(d)) for i in range(len(a[0])))


def _mat_rank(rows) -> int:
    return len(exactla.field_rref([list(r) for r in rows])[0])


# ---------------------------------------------------------------------------
# abelian character tables


@dataclass(frozen=True)
class CharacterTable:
    """All characters of an abelian group, in exponent form."""

    group: GroupTable
    factors: tuple[int, ...]  # invariant factors, ascending divisibility
    exponent: int
    basis: tuple[int, ...]  # generator ids aligned with factors
    coords: tuple[tuple[int, ...], ...]  # element -> coordinates
    characters: tuple[tuple[int, ...], ...]
    value_exponents: tuple[tuple[int, ...], ...]  # [char][element]


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
    # entry [char][x] is sum_i char_i * coords[x]_i * (exponent // d_i); each
    # term is below d_i * exponent <= |G|^2, so int64 holds the whole sum
    combos = np.array(chars, dtype=np.int64).reshape(len(chars), len(factors))
    weights = np.array([exponent // d for d in factors], dtype=np.int64)
    products = (combos * weights) @ combos[where].T % exponent
    value_exponents = tuple(map(tuple, products.tolist()))
    return CharacterTable(
        group=g,
        factors=factors,
        exponent=exponent,
        basis=basis,
        coords=coords,
        characters=chars,
        value_exponents=value_exponents,
    )


def char_value(ct: CharacterTable, char_index: int, x: int) -> complex:
    e = ct.value_exponents[char_index][x]
    return cmath.exp(2j * cmath.pi * e / ct.exponent)


def faithful_characters(ct: CharacterTable) -> list[int]:
    """Indices of the characters whose kernel is trivial."""
    out = []
    for idx, row in enumerate(ct.value_exponents):
        if all(row[x] != 0 for x in range(1, ct.group.order)):
            out.append(idx)
    return out


def dft(ct: CharacterTable, f) -> list[complex]:
    """Numeric Fourier coefficients sum_x f(x) chi(x), one per character."""
    vals = [complex(v) for v in f]
    if len(vals) != ct.group.order:
        raise DimensionError(
            f"function length {len(vals)}, expected {ct.group.order}"
        )
    n = ct.group.order
    roots = [cmath.exp(2j * cmath.pi * k / ct.exponent) for k in range(ct.exponent)]
    return [
        sum(vals[x] * roots[ct.value_exponents[idx][x]] for x in range(n))
        for idx in range(len(ct.characters))
    ]


def plancherel_defect(ct: CharacterTable, f) -> float:
    """| (1/|G|) sum |f^(chi)|^2  -  sum |f(x)|^2 |, numerically."""
    coeffs = dft(ct, f)
    lhs = sum(abs(c) ** 2 for c in coeffs) / ct.group.order
    rhs = sum(abs(complex(v)) ** 2 for v in f)
    return abs(lhs - rhs)


def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_monic(poly, _cyclotomic(d))
    out = tuple(poly)
    _CYCLOTOMIC_CACHE[n] = out
    return out


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def _polydiv_monic(num, den):
    """Exact quotient num/den for a monic integer divisor; remainder must
    vanish (holds for products of cyclotomics)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dv in enumerate(den):
                num[i - dd + j] -= c * dv
    if any(num[:dd]):
        raise AssertionError("nonzero remainder in cyclotomic division")
    return out


def _root_sum_is_zero(counts: Counter, order: int) -> bool:
    """Whether sum over k of counts[k] * zeta^k vanishes, zeta = primitive
    order-th root of unity. Exact: divisibility by the minimal polynomial."""
    poly = [0] * order
    for k, c in counts.items():
        poly[k % order] += c
    if not any(poly):
        return True
    phi = _cyclotomic(order)
    dd = len(phi) - 1
    rem = list(poly)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j, dv in enumerate(phi):
                rem[i - dd + j] -= c * dv
    return not any(rem[:dd])


def char_sum_check_characters(ct: CharacterTable, indices=None) -> bool:
    """sum over the listed characters of chi(x): |G| at identity, 0 elsewhere.

    For the full table this is the completeness identity; passing a proper
    subset should make it fail. Exact at every x: the value is a sum of
    roots of unity, which vanishes iff the counting polynomial is divisible
    by the relevant cyclotomic polynomial.
    """
    idx = range(len(ct.characters)) if indices is None else list(indices)
    n = ct.group.order
    for x in range(n):
        exps = [ct.value_exponents[i][x] for i in idx]
        if x == 0:
            if any(exps) or len(exps) != n:
                return False
            continue
        if not _root_sum_is_zero(Counter(exps), ct.exponent):
            return False
    return True


def fourier_radon_check(
    g: GroupTable, f, tolerance: float = 1e-9, ct: CharacterTable | None = None
) -> bool:
    """Transform-then-DFT equals DFT-times-geodesic-sum, per character.

    For every prime p dividing |G| and homomorphism gamma of length p, the
    Fourier coefficient of x -> sum_t f(x gamma(t)) at chi must be
    f^(chi) * sum_t chi(gamma(t)).
    """
    if ct is None:
        ct = characters(g)
    vals = [complex(v) for v in f]
    if len(vals) != g.order:
        raise DimensionError(f"function length {len(vals)}, expected {g.order}")
    fhat = dft(ct, f)
    for p in exactla.prime_divisors(g.order):
        for hom in homomorphisms_cn(g, p):
            steps = g.powers(hom.image_generator, p)
            orbits = g.table[:, steps].tolist()  # row x: x * gen^t, t < p
            rf = [sum((vals[y] for y in row), 0j) for row in orbits]
            rf_hat = dft(ct, rf)
            for idx in range(len(ct.characters)):
                isum = sum((char_value(ct, idx, s) for s in steps), 0j)
                if abs(rf_hat[idx] - fhat[idx] * isum) > tolerance:
                    return False
    return True




# ---------------------------------------------------------------------------
# matrix representations


@dataclass(frozen=True)
class MatrixRep:
    """Exact matrix representation, one image per element id."""

    group_order: int
    dim: int
    images: tuple[Matrix, ...]
    declared_unitary: bool


def matrix_rep(g: GroupTable, images, unitary: bool) -> MatrixRep:
    """Validate images (identity, full homomorphism table, unitarity)."""
    mats = tuple(
        tuple(tuple(_as_gq(v) for v in row) for row in m) for m in images
    )
    if len(mats) != g.order:
        raise InvalidRepresentationError(
            f"{len(mats)} images for a group of order {g.order}"
        )
    d = len(mats[0])
    for m in mats:
        if len(m) != d or any(len(row) != d for row in m):
            raise InvalidRepresentationError("images are not all square of one size")
    if mats[0] != _mat_identity(d):
        raise InvalidRepresentationError("image of the identity is not the identity")
    for a, row in enumerate(g.table.tolist()):
        for b, ab in enumerate(row):
            if _mat_mul(mats[a], mats[b]) != mats[ab]:
                raise InvalidRepresentationError(
                    f"images break the product at pair ({a}, {b})"
                )
    if unitary:
        for a, m in enumerate(mats):
            if _mat_mul(m, _mat_conjt(m)) != _mat_identity(d):
                raise InvalidRepresentationError(f"image of {a} is not unitary")
    return MatrixRep(group_order=g.order, dim=d, images=mats, declared_unitary=unitary)


def _as_gq(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    return GaussianRational(v)


@dataclass(frozen=True)
class GeodesicSumMatrix:
    """I(rho, gamma) = sum_t rho(gamma(t)); hermitian by construction."""

    matrix: Matrix
    domain_order: int
    dim: int


def geodesic_sum(g: GroupTable, rep: MatrixRep, hom: Homomorphism) -> GeodesicSumMatrix:
    if rep.group_order != g.order:
        raise DimensionError("representation belongs to a different group order")
    total = tuple(tuple(_ZERO for _ in range(rep.dim)) for _ in range(rep.dim))
    for cur in g.powers(hom.image_generator, hom.domain_order):
        total = _mat_add(total, rep.images[cur])
    out = GeodesicSumMatrix(matrix=total, domain_order=hom.domain_order, dim=rep.dim)
    if rep.declared_unitary:
        assert _mat_conjt(total) == total, "geodesic sum is not self-adjoint"
        inverse_hom = Homomorphism(hom.domain_order, g.inv[hom.image_generator])
        mirrored = tuple(tuple(_ZERO for _ in range(rep.dim)) for _ in range(rep.dim))
        for cur in g.powers(inverse_hom.image_generator, hom.domain_order):
            mirrored = _mat_add(mirrored, rep.images[cur])
        assert mirrored == total, "geodesic sum differs along the inverse generator"
    return out


def check_projection(g: GroupTable, rep: MatrixRep, hom: Homomorphism) -> bool:
    """I/n is the orthogonal projection onto the fixed space of rho(gen).

    Exact check: idempotent, self-adjoint, kills into the fixed space of the
    generator image, and has the same rank as that fixed space.
    """
    if not rep.declared_unitary:
        raise UnsupportedRepresentationError("projection check needs a unitary rep")
    total = geodesic_sum(g, rep, hom).matrix
    p = _mat_scale(total, GaussianRational(Fraction(1, hom.domain_order)))
    if _mat_mul(p, p) != p:
        return False
    if _mat_conjt(p) != p:
        return False
    m = rep.images[hom.image_generator]
    shifted = _mat_sub(m, _mat_identity(rep.dim))
    if any(any(v for v in row) for row in _mat_mul(shifted, p)):
        return False
    fixed_dim = rep.dim - _mat_rank(shifted)
    return _mat_rank(p) == fixed_dim


@dataclass(frozen=True)
class FixedSpaceReport:
    """Dimensions of the two distinguished subspaces of a representation."""

    dim: int
    fixed_span_dim: int  # span of all fixed vectors of rho(x), x != e
    kernel_dim: int  # intersection of the kernels of all prime geodesic sums
    dichotomy_ok: bool


def fixed_space_analysis(g: GroupTable, rep: MatrixRep) -> FixedSpaceReport:
    """For an irreducible rep the two spaces are 0 and everything, one way
    or the other; which way decides whether the rep contributes kernel."""
    if not rep.declared_unitary:
        raise UnsupportedRepresentationError("analysis needs a unitary rep")
    fixed_rows: list[list[GaussianRational]] = []
    ident = _mat_identity(rep.dim)
    for x in range(1, g.order):
        shifted = _mat_sub(rep.images[x], ident)
        for vec in exactla.field_nullspace(
            [list(r) for r in shifted], rep.dim, _ZERO, _ONE
        ):
            fixed_rows.append(vec)
    fixed_span = _mat_rank(fixed_rows) if fixed_rows else 0
    stacked: list[list[GaussianRational]] = []
    for p in exactla.prime_divisors(g.order):
        for hom in homomorphisms_cn(g, p):
            stacked.extend(
                list(r) for r in geodesic_sum(g, rep, hom).matrix
            )
    kernel_vecs = exactla.field_nullspace(stacked, rep.dim, _ZERO, _ONE)
    kdim = len(kernel_vecs)
    ok = (fixed_span == 0 and kdim == rep.dim) or (
        fixed_span == rep.dim and kdim == 0
    )
    return FixedSpaceReport(
        dim=rep.dim, fixed_span_dim=fixed_span, kernel_dim=kdim, dichotomy_ok=ok
    )


def char_sum_check(g: GroupTable, reps) -> bool:
    """sum_rho dim(rho) tr(rho(x)) = |G| at e, 0 elsewhere, exactly.

    The caller asserts the list is a complete set of irreducibles; the check
    is the standard completeness witness for that claim.
    """
    for x in range(g.order):
        acc = _ZERO
        for rep in reps:
            tr = sum((rep.images[x][i][i] for i in range(rep.dim)), _ZERO)
            acc = acc + tr * rep.dim
        want = GaussianRational(g.order if x == 0 else 0)
        if acc != want:
            return False
    return True


def matrix_coefficient_vectors(g: GroupTable, rep: MatrixRep) -> list[tuple]:
    """The dim^2 functions x -> rho(x^-1)[i][j] as exact vectors on G."""
    out = []
    for i in range(rep.dim):
        for j in range(rep.dim):
            out.append(tuple(rep.images[g.inv[x]][i][j] for x in range(g.order)))
    return out


# ---------------------------------------------------------------------------
# the quaternion group's irreducible representations


def quaternion_rep_set(g: GroupTable) -> list[MatrixRep]:
    """The four linear characters and the 2-dim irrep of the order-8
    dicyclic (quaternion) group, exactly, as validated MatrixReps.

    Expects the dicyclic id convention: x = m*4 + k stands for b^m a^k.
    """
    if g.order != 8 or sorted(g.elt_order) != [1, 2, 4, 4, 4, 4, 4, 4]:
        raise UnsupportedGroupError("not the quaternion group")
    mat_i = ((_I, _ZERO), (_ZERO, -_I))
    mat_j = ((_ZERO, _ONE), (-_ONE, _ZERO))

    def images_2d():
        out = []
        for x in range(8):
            m, k = divmod(x, 4)
            mat = _mat_identity(2)
            if m:
                mat = _mat_mul(mat, mat_j)
            for _ in range(k):
                mat = _mat_mul(mat, mat_i)
            out.append(mat)
        return out

    reps = [matrix_rep(g, images_2d(), unitary=True)]
    for alpha, beta in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        images = []
        for x in range(8):
            m, k = divmod(x, 4)
            images.append(((GaussianRational(alpha**m * beta**k),),))
        reps.append(matrix_rep(g, images, unitary=True))
    # trivial first, 2-dim last: conventional reading order
    reps.sort(key=lambda r: (r.dim, [complex(m[0][0]) != 1 for m in r.images]))
    return reps


# ---------------------------------------------------------------------------
# JSON round trip for representations


def rep_to_dict(rep: MatrixRep) -> dict:
    images = {}
    for x, m in enumerate(rep.images):
        images[str(x)] = [
            [
                [
                    v.re.numerator,
                    v.re.denominator,
                    v.im.numerator,
                    v.im.denominator,
                ]
                for v in row
            ]
            for row in m
        ]
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
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidRepresentationError(f"cannot read {source}: {exc}")
        except json.JSONDecodeError as exc:
            raise InvalidRepresentationError(f"{source} is not valid JSON: {exc}")
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
    images = []
    for x in range(g.order):
        m = raw_images.get(str(x))
        if m is None:
            raise InvalidRepresentationError(f"missing image for element {x}")
        if not _is_square(m, dim) or not all(_is_cell(c) for row in m for c in row):
            raise InvalidRepresentationError(
                f"image of {x} is not a {dim}x{dim} matrix of cells [re_num, "
                f"re_den, im_num, im_den], four ints with nonzero denominators"
            )
        images.append(tuple(
            tuple(GaussianRational(Fraction(a, b), Fraction(c, d)) for a, b, c, d in r)
            for r in m
        ))
    return matrix_rep(g, images, unitary=unitary)
