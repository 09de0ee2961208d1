from math import gcd

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from coset_radon import centre, exactla, groups, radon


def test_minimal_polynomial_reads_a_diagonal_spectrum():
    def diagonal(*entries):
        return lambda u: np.array(entries, dtype=np.int64) * u % 7

    ones = np.ones(3, dtype=np.int64)
    # x (x - 1) (x - 2) = x^3 - 3 x^2 + 2 x; T^j v is 0 at entry 0 for j > 0
    assert centre.minimal_polynomial(diagonal(0, 1, 2), ones, 7) == (
        [0, 2, 4, 1], [1, 0, 0]
    )
    assert centre.minimal_polynomial(diagonal(3, 1, 2), ones, 7)[0][0] != 0
    # T is singular, yet invertible on the span of v = e_1
    e1 = np.array([0, 1, 0], dtype=np.int64)
    assert centre.minimal_polynomial(diagonal(0, 1, 2), e1, 7) == ([6, 1], [0])
    assert centre.minimal_polynomial(diagonal(0, 1, 2), 0 * e1, 7) == ([1], [])


@given(
    st.sampled_from([2, 7, 101]),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ),
    st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_minimal_polynomial_matches_a_dense_oracle(p, matrix, start):
    # mu annihilates v, and v, T v, ..., T^(d-1) v are independent, so no
    # polynomial of lower degree does
    t, v = np.array(matrix, dtype=np.int64) % p, np.array(start, dtype=np.int64) % p
    mu, heads = centre.minimal_polynomial(lambda u: t @ u % p, v, p)
    d = len(mu) - 1
    assert mu[d] == 1 and all(0 <= c < p for c in mu)
    krylov = [v]
    for _ in range(d):
        krylov.append(t @ krylov[-1] % p)
    assert not (sum(c * u for c, u in zip(mu, krylov)) % p).any()
    assert exactla.rank_mod(krylov[:d], 4, p) == d
    assert heads == [int(u[0]) for u in krylov[:d]]


def _phi(n):
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


# The paper's closed forms, which never touch the transform. The kernel of
# a family is the sum of the isotypic blocks, chi(1)^2 dimensions each, of
# the irreducibles chi with no vector fixed by any subgroup of the family.
# - C_n: a -> zeta^k fixes <a^(n/p)> exactly when p | k, so the prime
#   family leaves the phi(n) faithful characters. The maximal family is C_n
#   itself and leaves the n - 1 nontrivial ones.
# - Dic_n = <a, b | a^2n = 1, b^2 = a^n, b^-1 a b = a^-1>, n >= 2. Its
#   subgroups of prime order are the <a^(2n/p)>, and some prime p | 2n has
#   2n/p even, which fixes each of the four linear characters, where
#   chi(a) = 1 or -1. The n - 1 two-dimensional ones, induced from
#   a -> zeta^k, zeta = e^(2 pi i/2n), 0 < k < n, give a^(2n/p) the
#   eigenvalues e^(2 pi i k/p) and its inverse. So the prime family leaves
#   those with gcd(k, 2n) = 1: phi(2n)/2 of dimension 2, 2 phi(2n) in all.
#   The maximal family is <a> and the n subgroups <a^j b> of order 4, with
#   (a^j b)^2 = a^n. It leaves the two-dimensional ones with k odd, where
#   a^n is -1, and, for n odd, the two linear characters with
#   chi(b) = i or -i: 2n in all.
# - D_n, n >= 3: a reflection has the eigenvalues 1 and -1 on every
#   two-dimensional irreducible. A linear character that is -1 on every
#   reflection s is 1 on the rotation r = s (s r), so it fixes <r^(n/p)>
#   for a prime p | n: the prime family is injective.
@pytest.mark.parametrize("n", range(2, 121))
def test_closed_forms_of_the_named_families(n):
    c = radon.is_injective(groups.make_cyclic(n))
    assert c.kernel_dim == _phi(n)
    assert radon.is_injective(groups.make_cyclic(n), "maximal").kernel_dim == n - 1
    dic = groups.make_dicyclic(n)
    assert radon.is_injective(dic).kernel_dim == 2 * _phi(2 * n)
    assert radon.is_injective(dic, "maximal").kernel_dim == 2 * n
    if n >= 3:
        assert radon.is_injective(groups.make_dihedral(n)).injective


@pytest.mark.parametrize(
    "name, variant, rows, kernel_dim",
    [("Dic630", "maximal", 396_902, 1260), ("Dic1260", "maximal", 1_587_602, 2520)],
)
def test_a_spectrum_verdict_builds_no_coset_row(
    monkeypatch, name, variant, rows, kernel_dim
):
    built, eliminated = [], []
    build, echelon = radon._build_system, exactla.echelon_mod
    monkeypatch.setattr(radon, "_build_system", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(
        exactla, "echelon_mod", lambda *a: eliminated.append(1) or echelon(*a)
    )
    verdict = radon.is_injective(groups.from_name(name), variant)
    assert (verdict.rows, verdict.kernel_dim) == (rows, kernel_dim)
    assert verdict.method == "exact-elimination"
    assert built == eliminated == []


def test_the_size_rule_keeps_a_one_row_family_on_its_rows(monkeypatch):
    # C5040's maximal family is one row of 5040 cells, where a product by z
    # would read 5040^2
    built, nullities = [], []
    build, nullity = radon._build_system, centre.nullity
    monkeypatch.setattr(radon, "_build_system", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(
        centre, "nullity", lambda *a: nullities.append(nullity(*a)) or nullities[-1]
    )
    verdict = radon.is_injective(groups.from_name("C5040"), "maximal")
    assert (verdict.rows, verdict.rank, verdict.kernel_dim) == (1, 1, 5039)
    assert built == [1] and nullities == [None]


def test_rows_that_disagree_with_the_spectrum_raise(monkeypatch):
    # a kernel asked of a deficient spectrum builds the rows and checks
    # their rank mod P against |G| - m_0
    g = groups.from_name("C240")
    verdict, sys = radon._group_verdict(g, "prime", kernel=True)
    assert verdict.rows >= g.order and verdict.kernel_dim == 64
    assert len(sys._echelon) == verdict.rank
    nullity = centre.nullity
    monkeypatch.setattr(centre, "nullity", lambda *a: nullity(*a) + 1)
    with pytest.raises(AssertionError):
        radon._group_verdict(g, "prime", kernel=True)
    with pytest.raises(AssertionError):
        radon.kernel(radon.build_system(g, "prime"))
    # a verdict alone reads no row, so there is nothing to check it against
    assert radon.is_injective(g).kernel_dim == 65
