"""The Gaussian-rational reference for spectral's representations.

Representations are held in exact complex rationals, one Python object per
entry, and every rank and kernel goes through exactla's generic field
elimination (field_rref, field_nullspace). Each check scans all pairs, every
element and every homomorphism of prime length, so it shares no shortcut
with spectral's integer arrays over one denominator.
"""

from fractions import Fraction

import numpy as np

from coset_radon import exactla
from coset_radon.geodesics import homomorphisms_cn


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # the arithmetic below passes Fractions, which need no new wrapper
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

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

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
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

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


ZERO, ONE, I = GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)


def as_gq(v) -> GaussianRational:
    """An entry in any form matrix_rep reads, or a GaussianRational."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (tuple, list)):
        return GaussianRational(*v)
    return GaussianRational(v)


def as_entry(v):
    """An entry as matrix_rep reads it: a GaussianRational becomes its
    (re, im) pair of Fractions."""
    return (v.re, v.im) if isinstance(v, GaussianRational) else v


def entries(images) -> list:
    """images, each entry in a form matrix_rep reads."""
    return [[[as_entry(v) for v in row] for row in m] for m in images]


def gq_array(images) -> np.ndarray:
    """images as one (|G|, d, d) object array of GaussianRational."""
    mats = [[[as_gq(v) for v in row] for row in m] for m in images]
    out = np.empty((len(mats), len(mats[0]), len(mats[0])), dtype=object)
    out[...] = mats
    return out


def gq_images(rep) -> np.ndarray:
    """A MatrixRep's images, (re + i im) / denominator, as GaussianRationals."""
    den = rep.denominator
    return gq_array([
        [[(Fraction(a, den), Fraction(b, den)) for a, b in zip(ra, rb)]
         for ra, rb in zip(ma, mb)]
        for ma, mb in zip(rep.re.tolist(), rep.im.tolist())
    ])


def eye(d: int) -> np.ndarray:
    out = np.full((d, d), ZERO, dtype=object)
    np.fill_diagonal(out, ONE)
    return out


def rank(m) -> int:
    return len(exactla.field_rref(np.asarray(m).tolist())[0])


def _mul(a, b):
    d = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(d)), ZERO) for j in range(d)]
        for i in range(d)
    ]


def first_broken_pair(g, images):
    """Row-major first (a, b) with images[a] images[b] != images[ab], by
    plain nested loops over nested lists."""
    for a in range(g.order):
        for b in range(g.order):
            if _mul(images[a], images[b]) != images[int(g.table[a, b])]:
                return a, b
    return None


def first_non_unitary(images):
    """The first x whose image m has m m^* != I, by plain nested loops."""
    d = len(images[0])
    for x, m in enumerate(images):
        for i in range(d):
            for j in range(d):
                dot = sum((m[i][k] * m[j][k].conjugate() for k in range(d)), ZERO)
                if dot != (i == j):
                    return x
    return None


def validation_reference(g, images, unitary):
    """The error text of the all-pairs product scan and of the unitarity
    scan over every element, or None when the images pass both."""
    images = gq_array(images).tolist()
    d = len(images[0])
    if images[0] != eye(d).tolist():
        return "image of the identity is not the identity"
    pair = first_broken_pair(g, images)
    if pair is not None:
        return f"images break the product at pair {pair}"
    x = first_non_unitary(images) if unitary else None
    return None if x is None else f"image of {x} is not unitary"


def all_prime_homomorphisms(g):
    return [hom for p in exactla.prime_divisors(g.order) for hom in homomorphisms_cn(g, p)]


def geodesic_sum(g, images, hom) -> np.ndarray:
    return images[g.powers(hom.image_generator, hom.domain_order)].sum(axis=0)


def check_projection(g, images, hom) -> bool:
    """I/n is the orthogonal projection onto the fixed space of rho(gen):
    idempotent, self-adjoint, kills into the fixed space of the generator
    image, and of the same rank as that fixed space."""
    d = images.shape[1]
    p = geodesic_sum(g, images, hom) * GaussianRational(Fraction(1, hom.domain_order))
    if not np.array_equal(p @ p, p):
        return False
    if not np.array_equal(p.conj().T, p):
        return False
    shifted = images[hom.image_generator] - eye(d)
    if (shifted @ p).astype(bool).any():
        return False
    return rank(p) == d - rank(shifted)


def projections(g, image_sets) -> bool:
    return all(
        check_projection(g, images, hom)
        for images in image_sets for hom in all_prime_homomorphisms(g)
    )


def fixed_space(g, images):
    """(fixed span dim, kernel dim, dichotomy) over every element x != e
    and every homomorphism of prime length."""
    d = images.shape[1]
    fixed_rows = [
        vec
        for m in images[1:]
        for vec in exactla.field_nullspace((m - eye(d)).tolist(), d, ZERO, ONE)
    ]
    fixed_span = len(exactla.field_rref(fixed_rows)[0])
    stacked = [
        row
        for hom in all_prime_homomorphisms(g)
        for row in geodesic_sum(g, images, hom).tolist()
    ]
    kdim = len(exactla.field_nullspace(stacked, d, ZERO, ONE))
    return fixed_span, kdim, (fixed_span, kdim) in ((0, d), (d, 0))


def rep_to_dict(images, unitary) -> dict:
    """The file form of GaussianRational images, each entry a cell
    [re_num, re_den, im_num, im_den] in lowest terms."""
    cells = {
        str(x): [
            [[v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator]
             for v in row]
            for row in m
        ]
        for x, m in enumerate(images.tolist())
    }
    return {"dim": images.shape[1], "images": cells, "unitary": unitary}
