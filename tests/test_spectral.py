import dataclasses
import json
import math
import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaussian_oracle as oracle
from coset_radon import cli, exactla, groups, radon, spectral, verify
from coset_radon.errors import (
    CosetRadonError,
    DimensionError,
    InvalidOrderError,
    InvalidRepresentationError,
    UnsupportedGroupError,
    UnsupportedRepresentationError,
)
from coset_radon.geodesics import Homomorphism, homomorphisms_cn


# --- character tables ---------------------------------------------------------


def test_characters_c6():
    ct = spectral.characters(groups.make_cyclic(6))
    assert ct.factors == (6,)
    assert ct.exponent == 6
    assert len(ct.characters) == 6
    # trivial character first
    assert all(e == 0 for e in ct.value_exponents[0])


def test_characters_c2xc4():
    g = groups.from_name("C2xC4")
    ct = spectral.characters(g)
    assert ct.factors == (2, 4)
    assert ct.exponent == 4
    assert len(ct.characters) == 8


def test_value_exponents_match_triple_loop():
    corpus = [g for g in verify.groups_upto(48) if groups.is_abelian(g)]
    for g in corpus + [groups.from_name("C12xC12")]:
        ct = spectral.characters(g)
        weights = [ct.exponent // d for d in ct.factors]
        want = [
            [
                sum(c * xc * w for c, xc, w in zip(char, ct.coords[x], weights))
                % ct.exponent
                for x in range(g.order)
            ]
            for char in ct.characters
        ]
        assert ct.value_exponents.tolist() == want, g.recipe
        assert ct.value_exponents.dtype == np.int64
        assert not ct.value_exponents.flags.writeable


def test_characters_reject_nonabelian():
    with pytest.raises(UnsupportedGroupError):
        spectral.characters(groups.make_dihedral(3))


def test_character_values_are_homomorphisms():
    g = groups.from_name("C2xC6")
    ct = spectral.characters(g)
    for idx in range(len(ct.characters)):
        exps = ct.value_exponents[idx]
        for a in range(g.order):
            for b in range(g.order):
                want = (exps[a] + exps[b]) % ct.exponent
                assert exps[g.table[a, b]] == want


def test_faithful_counts_cyclic():
    # phi(n) faithful characters on C_n
    phi = {2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 9: 6, 12: 4}
    for n, count in phi.items():
        ct = spectral.characters(groups.make_cyclic(n))
        assert len(spectral.faithful_characters(ct)) == count, n


def test_no_faithful_characters_off_cyclic():
    for name in ("C2xC2", "C2xC4", "C3xC3", "C6xC6"):
        ct = spectral.characters(groups.from_name(name))
        assert spectral.faithful_characters(ct) == [], name


def test_faithful_count_matches_kernel_dim():
    for n in (4, 6, 8, 9, 10, 12):
        g = groups.make_cyclic(n)
        kdim = radon.is_injective(g).kernel_dim
        ct = spectral.characters(g)
        assert len(spectral.faithful_characters(ct)) == kdim, n


# --- exact root-of-unity sums -------------------------------------------------
# The reference decides a sum of L-th roots of unity by dividing the
# polynomial that counts its exponents by the L-th cyclotomic polynomial.


@cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, _cyclotomic(d))
            if any(rem):
                raise AssertionError("nonzero remainder in cyclotomic division")
    return tuple(poly)


def _divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of integer polynomials, low degree first, for a
    monic divisor den; the remainder has len(den) - 1 coefficients."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dv in enumerate(den):
                num[i - dd + j] -= c * dv
    return out, num[:dd]


def test_cyclotomic_polynomials():
    assert _cyclotomic(1) == (-1, 1)
    assert _cyclotomic(2) == (1, 1)
    assert _cyclotomic(6) == (1, -1, 1)
    assert _cyclotomic(12) == (1, 0, -1, 0, 1)


def _count_vectors(L: int) -> list[list[int]]:
    """The zero vector, two random count vectors, two vanishing ones (each a
    sum of cosets of prime-order subgroups of Z/L) and each of those two
    with one more exponent counted, which no longer vanishes."""
    rng = random.Random(L)
    out = [[0] * L] + [[rng.randrange(3) for _ in range(L)] for _ in range(2)]
    primes = exactla.prime_divisors(L)
    for _ in range(2 if primes else 0):
        vec = [0] * L
        for _ in range(3):
            step = L // rng.choice(primes)
            mult = rng.randint(1, 3)
            for k in range(rng.randrange(step), L, step):
                vec[k] += mult
        bumped = list(vec)
        bumped[rng.randrange(L)] += 1
        out += [vec, bumped]
    return out


@pytest.mark.parametrize("L", [*range(1, 101), 2520, 5040])
def test_vanishing_matches_cyclotomic_division(L):
    vectors = _count_vectors(L)
    want = [not any(_divmod_monic(v, _cyclotomic(L))[1]) for v in vectors]
    assert set(want) == {True, False}
    got = spectral._vanishing(np.array(vectors, dtype=np.int64), L)
    assert got.dtype == bool
    assert got.tolist() == want


def test_completeness_of_full_character_table():
    for name in ("C6", "C2xC4", "C3xC3", "C2xC2xC2"):
        ct = spectral.characters(groups.from_name(name))
        assert spectral.char_sum_check_characters(ct), name


def test_dropping_a_character_breaks_completeness():
    ct = spectral.characters(groups.make_cyclic(6))
    full = range(len(ct.characters))
    assert not spectral.char_sum_check_characters(ct, indices=list(full)[1:])
    assert not spectral.char_sum_check_characters(ct, indices=[0])


@pytest.mark.parametrize("indices", [[-6, -5, -4, -3, -2, -1], [0, 1, 2, 3, 4, 6]])
def test_character_indices_outside_the_table_are_refused(indices):
    # negative indices would wrap around to the full table, and 6 is past
    # the end of C6's six characters
    ct = spectral.characters(groups.make_cyclic(6))
    with pytest.raises(DimensionError, match="outside 0..5"):
        spectral.char_sum_check_characters(ct, indices=indices)


def _char_sum_per_element(ct, indices) -> bool:
    """The completeness identity one element at a time: at each x != e the
    polynomial counting the listed characters' exponents must be divisible
    by the cyclotomic polynomial of the exponent."""
    n, order = ct.group.order, ct.exponent
    if len(indices) != n:
        return False
    cyclotomic = _cyclotomic(order)
    for x in range(1, n):
        counts = [0] * order
        for i in indices:
            counts[int(ct.value_exponents[i, x])] += 1
        if any(_divmod_monic(counts, cyclotomic)[1]):
            return False
    return True


@pytest.mark.parametrize("name", ["C240", "C12xC12", "C2xC4xC3xC5"])
def test_char_sum_check_matches_per_element_division(name, monkeypatch):
    ct = spectral.characters(groups.from_name(name))
    n = ct.group.order
    rng = random.Random(n)
    full = list(range(n))
    one_repeated = [0] + full[:-1]  # character 0 twice, the last one missing
    drawn = [rng.randrange(n) for _ in range(n)]
    lists = (full, full[::-1], one_repeated, drawn, [5] * n)
    want = [_char_sum_per_element(ct, indices) for indices in lists]
    assert want[:2] == [True, True]
    assert spectral.char_sum_check_characters(ct)
    assert [spectral.char_sum_check_characters(ct, i) for i in lists] == want
    monkeypatch.setattr(groups, "_BLOCK_CELLS", 1000)  # many element blocks
    assert [spectral.char_sum_check_characters(ct, i) for i in lists] == want


# --- numeric Fourier side -----------------------------------------------------


def test_dft_of_point_mass():
    ct = spectral.characters(groups.make_cyclic(5))
    coeffs = spectral.dft(ct, [1, 0, 0, 0, 0])
    assert all(abs(c - 1) < 1e-12 for c in coeffs)


def test_dft_of_constant():
    ct = spectral.characters(groups.from_name("C2xC3"))
    coeffs = spectral.dft(ct, [1] * 6)
    assert abs(coeffs[0] - 6) < 1e-12
    assert all(abs(c) < 1e-12 for c in coeffs[1:])


def test_dft_length_check():
    ct = spectral.characters(groups.make_cyclic(4))
    with pytest.raises(DimensionError):
        spectral.dft(ct, [1, 2, 3])


def test_plancherel_and_fourier_check_read_an_iterator_once():
    g = groups.make_cyclic(6)
    ct = spectral.characters(g)
    f = [1, 2, 0, -1, 3, 5]
    assert spectral.plancherel_defect(ct, iter(f)) == spectral.plancherel_defect(ct, f)
    assert spectral.plancherel_defect(ct, iter(f)) < 1e-9
    assert spectral.fourier_radon_check(g, iter(f)) == spectral.fourier_radon_check(g, f)
    assert spectral.fourier_radon_check(g, iter(f), ct=ct)


def test_plancherel_defect_small():
    rng = random.Random(3)
    for name in ("C12", "C2xC6"):
        g = groups.from_name(name)
        ct = spectral.characters(g)
        f = [rng.uniform(-1, 1) for _ in range(g.order)]
        assert spectral.plancherel_defect(ct, f) < 1e-9


def test_fourier_transform_identity():
    rng = random.Random(9)
    for name in ("C12", "C2xC4", "C3xC3"):
        g = groups.from_name(name)
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.order)]
        assert spectral.fourier_radon_check(g, f), name


def test_fourier_check_runs_one_dft_per_subgroup_of_prime_order(monkeypatch):
    # C2520 has one subgroup each of order 2, 3, 5 and 7: the DFT of f and
    # one per subgroup, not one per element of prime order
    g = groups.make_cyclic(2520)
    ct = spectral.characters(g)
    f = [Fraction((7 * x) % 11 - 5, 3) for x in range(g.order)]
    calls, dft = [], spectral.dft
    monkeypatch.setattr(spectral, "dft", lambda *args: calls.append(1) or dft(*args))
    assert spectral.fourier_radon_check(g, f, ct=ct)
    assert len(calls) == 5


def test_fourier_check_length_error():
    with pytest.raises(DimensionError):
        spectral.fourier_radon_check(groups.make_cyclic(4), [1, 2])



@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_fourier_check_refuses_unusable_tolerance(tolerance):
    g = groups.make_cyclic(6)
    with pytest.raises(CosetRadonError, match="tolerance"):
        spectral.fourier_radon_check(g, [1] * 6, tolerance=tolerance)
    # zero stays allowed, though the FFT may leave a residual above it; a
    # point mass at the identity passes at a tolerance near rounding
    point = [1, 0, 0, 0, 0, 0]
    assert spectral.fourier_radon_check(g, point, tolerance=0.0) in (True, False)
    assert spectral.fourier_radon_check(g, point, tolerance=1e-12)




# --- matrix representations ---------------------------------------------------


def _regular_rep_c2():
    flip = ((0, 1), (1, 0))
    ident = ((1, 0), (0, 1))
    return spectral.matrix_rep(groups.make_cyclic(2), [ident, flip], unitary=True)


def test_matrix_rep_validation():
    g = groups.make_cyclic(2)
    ident = ((1, 0), (0, 1))
    flip = ((0, 1), (1, 0))
    with pytest.raises(InvalidRepresentationError):
        spectral.matrix_rep(g, [ident], unitary=False)
    with pytest.raises(InvalidRepresentationError):
        spectral.matrix_rep(g, [flip, ident], unitary=False)
    # scaling breaks both the product rule and unitarity
    doubled = ((0, 2), (2, 0))
    with pytest.raises(InvalidRepresentationError):
        spectral.matrix_rep(g, [ident, doubled], unitary=False)


def test_matrix_rep_reads_ints_fractions_and_pairs():
    g = groups.make_cyclic(2)
    # rho(1) = [[3/5, 4i/5], [-4i/5, -3/5]], a unitary involution, with its
    # entries written in each form matrix_rep reads
    ident = [[1, Fraction(0)], [(0, 0), (Fraction(3, 3), 0)]]
    forms = [
        [[Fraction(3, 5), (0, Fraction(4, 5))],
         [(0, Fraction(-4, 5)), Fraction(-3, 5)]],
        [[(Fraction(6, 10), 0), [0, Fraction(4, 5)]],
         [(0, Fraction(4, -5)), (Fraction(-3, 5), 0)]],
    ]
    for image in forms:
        rep = spectral.matrix_rep(g, [ident, image], unitary=True)
        assert (rep.denominator, rep.re.dtype) == (5, np.int64)
        assert rep.re.tolist() == [[[5, 0], [0, 5]], [[3, 0], [0, -3]]]
        assert rep.im.tolist() == [[[0, 0], [0, 0]], [[0, 4], [-4, 0]]]
    # one denominator for all parts: the lcm of 2 and 3
    image = [[1, 0], [(Fraction(1, 2), Fraction(1, 3)), -1]]
    rep = spectral.matrix_rep(g, [ident, image], unitary=False)
    assert rep.denominator == 6
    assert rep.re[1].tolist() == [[6, 0], [3, -6]]
    assert rep.im[1].tolist() == [[0, 0], [2, 0]]


def test_matrix_rep_unitarity_enforced():
    g = groups.make_cyclic(2)
    ident = ((1, 0), (0, 1))
    # valid rep, but with a non-unitary similarity twist
    skew = ((1, 0), (1, -1))
    assert spectral.matrix_rep(g, [ident, skew], unitary=False).dim == 2
    with pytest.raises(InvalidRepresentationError):
        spectral.matrix_rep(g, [ident, skew], unitary=True)


def test_regular_rep_projection_matrix():
    rep = _regular_rep_c2()
    g = rep.group
    hom = Homomorphism(2, 1)
    total = spectral.geodesic_sum(g, rep, hom)
    assert total.re.tolist() == [[1, 1], [1, 1]]
    assert total.im.tolist() == [[0, 0], [0, 0]]
    assert total.denominator == 1
    assert spectral.check_projection(g, rep, hom)


def test_projection_needs_unitary_flag():
    g = groups.make_cyclic(2)
    rep = spectral.matrix_rep(g, [((1, 0), (0, 1)), ((0, 1), (1, 0))], unitary=False)
    with pytest.raises(UnsupportedRepresentationError):
        spectral.check_projection(g, rep, Homomorphism(2, 1))
    with pytest.raises(UnsupportedRepresentationError):
        spectral.fixed_space_analysis(g, rep)


# --- the quaternion group -----------------------------------------------------


@pytest.fixture(scope="module")
def q8():
    return groups.make_dicyclic(2)


@pytest.fixture(scope="module")
def q8_reps(q8):
    return spectral.quaternion_rep_set(q8)


def test_quaternion_rep_set_shape(q8_reps):
    assert [r.dim for r in q8_reps] == [1, 1, 1, 1, 2]
    # trivial rep first
    assert (q8_reps[0].re == q8_reps[0].denominator).all()
    assert all(r.declared_unitary for r in q8_reps)


def test_quaternion_rep_set_rejects_other_groups():
    with pytest.raises(UnsupportedGroupError):
        spectral.quaternion_rep_set(groups.make_cyclic(8))
    with pytest.raises(UnsupportedGroupError):
        spectral.quaternion_rep_set(groups.make_dihedral(4))


def test_quaternion_completeness(q8, q8_reps):
    assert spectral.char_sum_check(q8, q8_reps)
    assert not spectral.char_sum_check(q8, q8_reps[:-1])


def test_quaternion_projections(q8, q8_reps):
    for rep in q8_reps:
        for hom in homomorphisms_cn(q8, 2):
            assert spectral.check_projection(q8, rep, hom)


def test_quaternion_center_sum_vanishes_on_2dim(q8, q8_reps):
    rep = q8_reps[-1]
    # the unique order-2 element generates the center
    center = next(x for x in range(1, 8) if q8.elt_order[x] == 2)
    total = spectral.geodesic_sum(q8, rep, Homomorphism(2, center))
    assert not total.re.any() and not total.im.any()


def test_quaternion_dichotomy(q8, q8_reps):
    reports = [spectral.fixed_space_analysis(q8, rep) for rep in q8_reps]
    assert all(r.dichotomy_ok for r in reports)
    linear = [r for r in reports if r.dim == 1]
    assert all(r.fixed_span_dim == 1 and r.kernel_dim == 0 for r in linear)
    two = [r for r in reports if r.dim == 2]
    assert len(two) == 1
    assert two[0].fixed_span_dim == 0 and two[0].kernel_dim == 2


def test_quaternion_kernel_prediction(q8, q8_reps):
    # contributions dim * kernel_dim add up to the transform kernel
    predicted = sum(
        spectral.fixed_space_analysis(q8, rep).kernel_dim * rep.dim
        for rep in q8_reps
    )
    assert predicted == radon.is_injective(q8).kernel_dim == 4


def test_quaternion_matrix_coefficients_span_kernel(q8, q8_reps):
    rep = q8_reps[-1]
    re, im = spectral.matrix_coefficient_vectors(q8, rep)
    # row i d + j is D rho(x^-1)[i][j], x along the row
    images = oracle.gq_images(rep)
    want = [images[q8.inv[x]][i][j] for i in range(2) for j in range(2) for x in range(8)]
    den = rep.denominator
    got = [oracle.GaussianRational(Fraction(a, den), Fraction(b, den))
           for a, b in zip(re.ravel().tolist(), im.ravel().tolist())]
    assert got == want
    sys = radon.build_system(q8, "prime")
    rows = [*re.tolist(), *im.tolist()]
    for row in rows:
        assert not any(radon.apply(sys, row))
    rref, pivots = exactla.field_rref([[Fraction(v) for v in r] for r in rows])
    assert len(pivots) == 4


# --- JSON round trip ----------------------------------------------------------


def test_rep_round_trip(q8, q8_reps, tmp_path):
    rep = q8_reps[-1]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(spectral.rep_to_dict(rep)))
    again = spectral.load_rep(str(path), q8)
    assert (again.group_order, again.dim, again.declared_unitary) == (
        rep.group_order, rep.dim, rep.declared_unitary
    )
    assert np.array_equal(again.re, rep.re) and np.array_equal(again.im, rep.im)
    assert again.denominator == rep.denominator


def test_load_rep_malformed(q8):
    with pytest.raises(InvalidRepresentationError):
        spectral.load_rep({"images": {}}, q8)
    with pytest.raises(InvalidRepresentationError):
        spectral.load_rep({"dim": 1, "images": {}, "unitary": True}, q8)
    bad_shape = {
        "dim": 2,
        "images": {str(x): [[[1, 1, 0, 1]]] for x in range(8)},
        "unitary": False,
    }
    with pytest.raises(InvalidRepresentationError):
        spectral.load_rep(bad_shape, q8)
    # images must have exactly the keys "0" .. "7"; the first unexpected key
    # in sorted order is named
    good = spectral.rep_to_dict(spectral.quaternion_rep_set(q8)[0])
    for extra, named in (
        ({"8": good["images"]["0"]}, "'8'"),
        ({"banana": 3, "7 ": good["images"]["7"]}, "'7 '"),
        ({"-1": 0, "10": 0, "01": 0}, "'-1'"),
    ):
        data = {**good, "images": {**good["images"], **extra}}
        with pytest.raises(InvalidRepresentationError, match=f"image key {named} is"):
            spectral.load_rep(data, q8)
    assert spectral.load_rep(good, q8).dim == 1


def test_matrix_rep_refuses_images_that_are_not_all_square():
    g = groups.make_cyclic(2)
    for images in ([[[1]], [[1, 0], [0, 1]]], [[[1, 0]], [[1, 0]]], [[], []]):
        with pytest.raises(InvalidRepresentationError, match="not all square"):
            spectral.matrix_rep(g, images, unitary=False)


def _hand_built(g, diagonals):
    """A MatrixRep with diagonal images, made without matrix_rep's checks,
    so that it need not be a representation."""
    d = len(diagonals[0])
    re = np.zeros((g.order, d, d), dtype=np.int64)
    for x, diagonal in enumerate(diagonals):
        np.fill_diagonal(re[x], diagonal)
    return spectral.MatrixRep(g, d, re, np.zeros_like(re), 1, declared_unitary=True)


def test_check_projection_refuses_a_sum_that_is_no_projection():
    c2, c3 = groups.make_cyclic(2), groups.make_cyclic(3)
    cases = [
        # (2 + 1) / 2 is not idempotent, though rho(1) = 1 fixes everything
        (c2, [[2], [1]], False),
        # P = (I + diag(2, 1) + diag(0, -2)) / 3 = diag(1, 0) is an orthogonal
        # projection of the rank the fixed space of rho(1) has, but rho(1)
        # moves the vectors of its image
        (c3, [[1, 1], [2, 1], [0, -2]], False),
        (c3, [[1, 1], [1, 2], [1, -3]], True),  # P = diag(1, 0) again
    ]
    for g, diagonals, want in cases:
        rep, hom = _hand_built(g, diagonals), Homomorphism(g.order, 1)
        assert spectral.check_projection(g, rep, hom) is want
        assert oracle.check_projection(g, oracle.gq_images(rep), hom) is want


# --- array forms against per-entry references ------------------------------------


def _corruptions(images):
    """Copies of images with one image x > 0 changed in several ways."""
    images = oracle.gq_array(images).tolist()
    changes = [
        lambda m: [[-v for v in row] for row in m],
        lambda m: [[v * oracle.I for v in row] for row in m],
        lambda m: m[::-1],
        lambda m: [row[::-1] for row in m],
        lambda m: [[v + 1 for v in row] for row in m],
    ]
    for x in range(1, len(images)):
        for change in changes:
            out = [m for m in images]
            out[x] = change(images[x])
            yield out


@pytest.mark.parametrize("which", ["q8-two-dim", "c2-regular"])
def test_matrix_rep_names_first_broken_pair(which, q8, q8_reps):
    if which == "q8-two-dim":
        g, rep = q8, q8_reps[-1]
    else:
        g, rep = groups.make_cyclic(2), _regular_rep_c2()
    broken = 0
    for bad in _corruptions(oracle.gq_images(rep)):
        pair = oracle.first_broken_pair(g, bad)
        if pair is None:
            assert spectral.matrix_rep(g, oracle.entries(bad), unitary=False).dim == rep.dim
            continue
        broken += 1
        with pytest.raises(InvalidRepresentationError) as err:
            spectral.matrix_rep(g, oracle.entries(bad), unitary=False)
        assert str(err.value) == f"images break the product at pair {pair}"
    assert broken >= 2


def _dft_reference(ct, f):
    vals = [complex(v) for v in f]
    return [
        sum(vals[x] * spectral.char_value(ct, c, x) for x in range(ct.group.order))
        for c in range(len(ct.characters))
    ]


def _fourier_reference(g, ct, f, tolerance):
    vals = [complex(v) for v in f]
    fhat = _dft_reference(ct, f)
    for p in exactla.prime_divisors(g.order):
        for x in range(1, g.order):
            if p % g.elt_order[x]:
                continue
            steps = g.powers(x, p)
            rf = [
                sum((vals[int(g.table[y, s])] for s in steps), 0j)
                for y in range(g.order)
            ]
            rf_hat = _dft_reference(ct, rf)
            for c in range(len(ct.characters)):
                isum = sum((spectral.char_value(ct, c, s) for s in steps), 0j)
                if abs(rf_hat[c] - fhat[c] * isum) > tolerance:
                    return False
    return True


def _assert_dft_matches_reference(ct, f):
    got, want = np.array(spectral.dft(ct, f)), np.array(_dft_reference(ct, f))
    assert np.abs(got - want).max() <= 1e-13 * sum(abs(float(v)) for v in f)


@pytest.mark.parametrize("name", ["C12", "C2xC4", "C3xC3"])
def test_dft_and_fourier_check_match_per_entry_reference(name):
    g = groups.from_name(name)
    ct = spectral.characters(g)
    # rows 0 and 1 swapped move the trivial character, so the geodesic sums
    # no longer belong to the characters the FFT indexes
    swapped = ct.value_exponents[[1, 0, *range(2, len(ct.characters))]]
    broken = dataclasses.replace(ct, value_exponents=swapped)
    rng = random.Random(name)
    for _ in range(5):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.order)]
        _assert_dft_matches_reference(ct, f)
        want = _fourier_reference(g, ct, f, 1e-9)
        assert want
        assert spectral.fourier_radon_check(g, f, 1e-9, ct=ct) == want
        assert not spectral.fourier_radon_check(g, f, 1e-9, ct=broken)


def test_dft_matches_reference_on_every_small_abelian_class():
    # one group per isomorphism class up to order 48, and the trivial group
    rng = random.Random(48)
    for g in [groups.make_cyclic(1), *verify.abelian_groups_upto(48)]:
        ct = spectral.characters(g)
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.order)]
        _assert_dft_matches_reference(ct, f)


def test_dft_reads_coordinates_not_value_exponents():
    g = groups.from_name("C2xC4xC3")
    ct = spectral.characters(g)
    blank = dataclasses.replace(ct, value_exponents=np.empty((0, 0), dtype=np.int64))
    f = [x % 5 - 2 for x in range(g.order)]
    assert spectral.dft(blank, f) == spectral.dft(ct, f)


def test_array_forms_refuse_writes(q8, q8_reps):
    ct = spectral.characters(groups.from_name("C2xC4"))
    rep = q8_reps[-1]
    total = spectral.geodesic_sum(q8, rep, Homomorphism(4, 1))
    for arr in (ct.value_exponents, rep.re, rep.im, total.re, total.im):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


_C4 = groups.make_cyclic(4)
_Q8_REPS = spectral.quaternion_rep_set(groups.make_dicyclic(2))
_FOREIGN_REP = "representation belongs to a different group order"
_FOREIGN_TABLE = "character table belongs to another group"
_FOREIGN_GROUP = "representation belongs to another group"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda ct: spectral.char_value(ct, -1, 0), DimensionError,
                 "character index -1 is outside 0..3", id="char-index--1"),
    pytest.param(lambda ct: spectral.char_value(ct, 4, 0), DimensionError,
                 "character index 4 is outside 0..3", id="char-index-4"),
    pytest.param(lambda ct: spectral.char_value(ct, True, 1), DimensionError,
                 "character index True is not an int", id="char-index-True"),
    pytest.param(lambda ct: spectral.char_value(ct, 1.5, 1), DimensionError,
                 "character index 1.5 is not an int", id="char-index-1.5"),
    pytest.param(lambda ct: spectral.char_value(ct, "1", 1), DimensionError,
                 "character index '1' is not an int", id="char-index-str"),
    pytest.param(lambda ct: spectral.char_sum_check_characters(ct, [True, 1, 2, 3]),
                 DimensionError, "character index True is not an int",
                 id="char-sum-index-True"),
    # a table of C4 passed with a group of the same order: another group,
    # or another build of C4
    pytest.param(lambda ct: spectral.fourier_radon_check(
                     groups.from_name("C2xC2"), [1, 2, 3, 4], ct=ct),
                 spectral.ForeignCharacterTableError, _FOREIGN_TABLE,
                 id="fourier-on-C2xC2"),
    pytest.param(lambda ct: spectral.fourier_radon_check(
                     groups.make_cyclic(4), [1, 2, 3, 4], ct=ct),
                 spectral.ForeignCharacterTableError, _FOREIGN_TABLE,
                 id="fourier-on-another-C4"),
    pytest.param(lambda ct: spectral.char_value(ct, 0, -1), InvalidOrderError,
                 "-1 is not an element id 0..3", id="element--1"),
    pytest.param(lambda ct: spectral.char_value(ct, 0, 4), InvalidOrderError,
                 "4 is not an element id 0..3", id="element-4"),
    pytest.param(lambda ct: spectral.matrix_coefficient_vectors(_C4, _Q8_REPS[-1]),
                 DimensionError, _FOREIGN_REP, id="coefficients-on-C4"),
    pytest.param(lambda ct: spectral.matrix_coefficient_vectors(
                     groups.make_cyclic(16), _Q8_REPS[-1]),
                 DimensionError, _FOREIGN_REP, id="coefficients-on-C16"),
    pytest.param(lambda ct: spectral.char_sum_check(_C4, _Q8_REPS),
                 DimensionError, _FOREIGN_REP, id="char-sum-on-C4"),
    # a Q8 rep passed with another group of order 8, or another build of Q8
    pytest.param(lambda ct: spectral.char_sum_check(groups.make_cyclic(8), _Q8_REPS),
                 spectral.ForeignRepresentationError, _FOREIGN_GROUP,
                 id="char-sum-on-C8"),
    pytest.param(lambda ct: spectral.matrix_coefficient_vectors(
                     groups.make_cyclic(8), _Q8_REPS[-1]),
                 spectral.ForeignRepresentationError, _FOREIGN_GROUP,
                 id="coefficients-on-C8"),
    pytest.param(lambda ct: spectral.fixed_space_analysis(
                     groups.make_dihedral(4), _Q8_REPS[-1]),
                 spectral.ForeignRepresentationError, _FOREIGN_GROUP,
                 id="fixed-space-on-D4"),
    pytest.param(lambda ct: spectral.check_projection(
                     groups.make_dihedral(4), _Q8_REPS[-1], Homomorphism(2, 1)),
                 spectral.ForeignRepresentationError, _FOREIGN_GROUP,
                 id="projection-on-D4"),
    pytest.param(lambda ct: spectral.geodesic_sum(
                     groups.make_dicyclic(2), _Q8_REPS[-1], Homomorphism(4, 1)),
                 spectral.ForeignRepresentationError, _FOREIGN_GROUP,
                 id="geodesic-sum-on-another-Q8"),
])
def test_spectral_entry_points_refuse_foreign_reps_and_ids(call, error, message):
    with pytest.raises(error) as err:
        call(spectral.characters(_C4))
    assert str(err.value) == message



# --- generator proofs against all-pairs and per-element references -------------


def _fixed_space_reference(g, images):
    """The analysis over every element x != e and every homomorphism of
    prime length, in Gaussian rationals."""
    fixed_span, kdim, ok = oracle.fixed_space(g, oracle.gq_array(images))
    return spectral.FixedSpaceReport(
        dim=len(images[0]), fixed_span_dim=fixed_span, kernel_dim=kdim, dichotomy_ok=ok
    )


def _projections_reference(g, image_sets):
    return oracle.projections(g, [oracle.gq_array(images) for images in image_sets])


def _projections_ok(g, reps):
    """projections_ok as `spectral --rep` reports it; the trivial group has
    no geodesics for the payload's verdict, and no homomorphisms to check."""
    if g.order == 1:
        assert spectral._prime_homomorphisms(g) == []
        return True
    return cli._spectral_rep_payload(g, reps)[0]["projections_ok"]


def _assert_matches_references(g, images, unitary):
    """matrix_rep accepts or rejects as the references do, with the same
    text; an accepted rep holds the images it was given, and an accepted
    unitary rep gets the references' analyses. Returns the references'
    error text, None when they accept."""
    want = oracle.validation_reference(g, images, unitary)
    try:
        rep = spectral.matrix_rep(g, oracle.entries(images), unitary=unitary)
    except InvalidRepresentationError as err:
        assert str(err) == want
        return want
    assert want is None
    assert np.array_equal(oracle.gq_images(rep), oracle.gq_array(images))
    if unitary:
        assert spectral.fixed_space_analysis(g, rep) == _fixed_space_reference(g, images)
        assert _projections_ok(g, [rep]) == _projections_reference(g, [images])
    return None


def _relabelled(g, seed):
    """g rebuilt with element x renamed perm[x], 0 kept at 0; returns the
    new group and perm."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
    out = np.empty((g.order, g.order), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[g.table]
    return groups.from_cayley_table(out), perm


def _permutation_images(n):
    """The n-dim permutation rep of make_symmetric(n): e_i -> e_p(i)."""
    return [
        [[int(p[j] == i) for j in range(n)] for i in range(n)]
        for p in groups._permutations(n).tolist()
    ]


def _moved(images, perm):
    """images laid out for the relabelled group: x's image at perm[x]."""
    out = [None] * len(images)
    for x, m in enumerate(images):
        out[perm[x]] = m
    return out


def _oracle_cases():
    """(id, group, images, unitary) of valid and invalid reps."""
    q8 = groups.make_dicyclic(2)
    for k, rep in enumerate(spectral.quaternion_rep_set(q8)):
        yield f"q8-{k}", q8, oracle.gq_images(rep).tolist(), True
    c2 = groups.make_cyclic(2)
    yield "c2-regular", c2, oracle.gq_images(_regular_rep_c2()).tolist(), True
    skew = [((1, 0), (0, 1)), ((1, 0), (1, -1))]
    yield "c2-skew", c2, skew, False
    yield "c2-skew-unitary", c2, skew, True
    for n in (3, 4):
        sym, images = groups.make_symmetric(n), _permutation_images(n)
        yield f"S{n}", sym, images, True
        for seed in (1, 2):
            h, perm = _relabelled(sym, seed)
            yield f"S{n}-relabelled-{seed}", h, _moved(images, perm), True
    c1 = groups.make_cyclic(1)
    yield "trivial-1", c1, [[[1]]], True
    yield "trivial-2", c1, [((1, 0), (0, 1))], True
    yield "trivial-not-identity", c1, [[[-1]]], True


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_generator_proofs_match_references(case):
    _, g, images, unitary = case
    rejected = _assert_matches_references(g, images, unitary) is not None
    assert rejected == case[0].endswith(("-unitary", "not-identity"))


def test_relabelled_tables_take_other_generators():
    """The relabelled symmetric groups above prove their reps on generating
    sets other than the named tables' ones."""
    for n in (3, 4):
        sym = groups.make_symmetric(n)
        for seed in (1, 2):
            h, perm = _relabelled(sym, seed)
            assert sorted(h.generators) != sorted(perm[list(sym.generators)].tolist())


def _twists(g, images, s):
    """Two changes of a rep that still pass the product check on the one
    generator s: rho(x) doubled for x outside <s>, a factor constant on the
    cosets x<s>; and rho conjugated by P = 2I + rho(s), which commutes with
    rho(s) and, for s of order m, has the inverse
    sum_k (-rho(s))^k 2^(m-1-k) / (2^m - (-1)^m)."""
    arr = oracle.gq_array(images)
    steps, m = g.powers(s), g.elt_order[s]
    scaled = [a if x in steps else a * 2 for x, a in enumerate(arr)]
    eye = oracle.eye(arr.shape[1])
    p = eye * 2 + arr[s]
    p_inv = sum(arr[y] * ((-1) ** k * 2 ** (m - 1 - k)) for k, y in enumerate(steps))
    p_inv = p_inv * oracle.GaussianRational(Fraction(1, 2**m - (-1) ** m))
    assert np.array_equal(p @ p_inv, eye)
    conjugated = [p @ a @ p_inv for a in arr]
    return [a.tolist() for a in scaled], [a.tolist() for a in conjugated]


@pytest.mark.parametrize("name", ["Dic2", "S3", "S4", "S4-relabelled"])
def test_twists_on_one_generator_match_references(name):
    """Each generator is needed: a rep twisted so that it passes on one of
    them is rejected as the all-pairs scan rejects it."""
    if name == "Dic2":
        g = groups.make_dicyclic(2)
        images = oracle.gq_images(spectral.quaternion_rep_set(g)[-1]).tolist()
    elif name == "S4-relabelled":
        g, perm = _relabelled(groups.make_symmetric(4), 1)
        images = _moved(_permutation_images(4), perm)
    else:
        g, images = groups.from_name(name), _permutation_images(int(name[1:]))
    assert len(g.generators) == 2
    non_unitary = 0
    for s in g.generators:
        scaled, conjugated = _twists(g, images, s)
        assert _assert_matches_references(g, scaled, unitary=False).startswith(
            "images break the product at pair"
        )
        error = _assert_matches_references(g, conjugated, unitary=True)
        assert error is None or error.endswith("is not unitary")
        non_unitary += error is not None
    # in Q8's 2-dim irrep rho(s)^2 = -I, so P^* P = 5I and P keeps it unitary
    assert non_unitary >= (name != "Dic2")


def _corruption_cases():
    q8 = groups.make_dicyclic(2)
    yield "q8-two-dim", q8, oracle.gq_images(spectral.quaternion_rep_set(q8)[-1]).tolist()
    yield "c2-regular", groups.make_cyclic(2), oracle.gq_images(_regular_rep_c2()).tolist()
    yield "S3", groups.make_symmetric(3), _permutation_images(3)


@pytest.mark.parametrize("case", list(_corruption_cases()), ids=lambda c: c[0])
def test_every_corruption_matches_references(case):
    _, g, images = case
    errors = [
        _assert_matches_references(g, bad, unitary)
        for bad in _corruptions(images)
        for unitary in (False, True)
    ]
    assert any(errors)


@given(
    case=st.sampled_from(list(_corruption_cases())),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_one_random_corrupted_image_matches_references(case, data):
    _, g, images = case
    x = data.draw(st.integers(1, g.order - 1), label="element")
    d = len(images[0])
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    part = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    value = oracle.GaussianRational(data.draw(part), data.draw(part))
    bad = [[list(row) for row in m] for m in images]
    bad[x][i][j] = value
    _assert_matches_references(g, bad, data.draw(st.booleans(), label="unitary"))


@pytest.mark.parametrize("seed", [None, *range(6)])
def test_builtin_quaternion_reps_pass_matrix_rep(seed, q8):
    # quaternion_rep_set skips matrix_rep, on the proof in its docstring;
    # matrix_rep still accepts every rep with equal images, on Dic2 and on
    # the relabelled tables of the test below
    h = q8
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(8)
        table = np.empty((8, 8), dtype=np.int64)
        table[np.ix_(perm, perm)] = perm[q8.table]
        h = groups.from_cayley_table(table)
    for rep in spectral.quaternion_rep_set(h):
        images = oracle.gq_images(rep).tolist()
        again = spectral.matrix_rep(h, oracle.entries(images), unitary=True)
        assert np.array_equal(again.re, rep.re) and np.array_equal(again.im, rep.im)
        assert (again.dim, again.denominator, again.declared_unitary) == (rep.dim, 1, True)
        for arr in (rep.re, rep.im):
            assert arr.dtype == np.int64 and not arr.flags.writeable


@pytest.mark.parametrize("seed", range(6))
def test_quaternion_rep_set_on_relabelled_tables(seed, q8):
    # any relabelling, the identity's id included
    perm = np.random.default_rng(seed).permutation(8)
    table = np.empty((8, 8), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[q8.table]
    h = groups.from_cayley_table(table)
    reps = spectral.quaternion_rep_set(h)
    assert [r.dim for r in reps] == [1, 1, 1, 1, 2]
    assert spectral.char_sum_check(h, reps)
    image_sets = [oracle.gq_images(rep).tolist() for rep in reps]
    for rep, images in zip(reps, image_sets):
        assert spectral.fixed_space_analysis(h, rep) == _fixed_space_reference(h, images)
    assert _projections_ok(h, reps) is _projections_reference(h, image_sets) is True


# --- Python ints where int64 could overflow ------------------------------------


def _householder_images(v):
    """S4's permutation rep conjugated by H = I - 2 v v^T / (v^T v), which
    is symmetric and orthogonal, so H P H is unitary again."""
    norm = sum(a * a for a in v)
    h = [[Fraction(int(i == j)) - Fraction(2 * v[i] * v[j], norm) for j in range(4)]
         for i in range(4)]
    return [
        [[sum(h[i][k] * p[k][l] * h[l][j] for k in range(4) for l in range(4))
          for j in range(4)] for i in range(4)]
        for p in _permutation_images(4)
    ]


@pytest.mark.parametrize("v, dtype", [
    ((65537, 3, 40000, 7), object),
    ((1, 2, 0, 3), np.int64),
], ids=["large-v", "small-v"])
def test_householder_conjugated_rep_matches_references(v, dtype):
    # (v^T v)^2 is about 2^65 for the large v, past int64 as a denominator
    g = groups.make_symmetric(4)
    images = _householder_images(v)
    assert _assert_matches_references(g, images, unitary=True) is None
    rep = spectral.matrix_rep(g, images, unitary=True)
    assert rep.re.dtype == rep.im.dtype == dtype
    assert (rep.denominator.bit_length() > 63) is (dtype is object)
    plain = spectral.matrix_rep(g, _permutation_images(4), unitary=True)
    assert spectral.fixed_space_analysis(g, rep) == spectral.fixed_space_analysis(g, plain)
    assert _projections_ok(g, [rep]) is _projections_ok(g, [plain]) is True
    assert spectral.char_sum_check(g, [rep]) == spectral.char_sum_check(g, [plain])
    want = oracle.rep_to_dict(oracle.gq_array(images), True)
    assert json.dumps(spectral.rep_to_dict(rep)) == json.dumps(want)
    again = spectral.load_rep(json.loads(json.dumps(want)), g)
    assert np.array_equal(again.re, rep.re) and np.array_equal(again.im, rep.im)


def test_non_unitary_rep_with_entries_past_int64_bounds():
    # [[1, 0], [c, -1]] squares to I for any c
    g, c = groups.make_cyclic(2), 2**62
    images = [[[1, 0], [0, 1]], [[1, 0], [c, -1]]]
    assert _assert_matches_references(g, images, unitary=False) is None
    rep = spectral.matrix_rep(g, images, unitary=False)
    assert rep.re.dtype == object and rep.re[1, 1, 0] == c
    images[1][0][1] = 1
    error = _assert_matches_references(g, images, unitary=False)
    assert error == "images break the product at pair (1, 1)"


def test_rep_to_dict_matches_reference_writer(q8, q8_reps):
    for rep in q8_reps:
        want = oracle.rep_to_dict(oracle.gq_images(rep), rep.declared_unitary)
        assert json.dumps(spectral.rep_to_dict(rep)) == json.dumps(want)
