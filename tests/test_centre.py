from math import gcd

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from coset_radon import centre, exactla, geodesics, groups, radon, verify


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


def _closure(g, x, y, limit):
    """The subgroup <x, y> as a set of ids, or None once it passes limit
    elements."""
    reached, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for b in (g.table.item(a, x), g.table.item(a, y)):
            if b not in reached:
                reached.add(b)
                frontier.append(b)
                if len(reached) > limit:
                    return None
    return reached


def _noncyclic_p2_or_pq(g):
    """Whether g has a noncyclic subgroup of order p^2 or pq. Such a group
    is generated by two elements of prime order, so the subgroups <x, y>
    of one generator x, y each of two subgroups of prime order are tried."""
    gens = [
        s.generator for s in geodesics.cyclic_subgroups(g)
        if exactla.is_prime(len(s.elements))
    ]
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            order = g.elt_order[x] * g.elt_order[y]
            sub = _closure(g, x, y, order)
            if sub is not None and len(sub) == order:
                if all(g.elt_order[z] < order for z in sub):
                    return True
    return False


# The paper's one-way test: every subgroup of order p^2 or pq of a
# Frobenius complement is cyclic, so a group with a noncyclic one is no
# Frobenius complement, and its prime family is injective.
def test_a_noncyclic_subgroup_of_order_p2_or_pq_makes_the_prime_family_injective():
    found = 0
    for g in verify.groups_upto(64):
        if _noncyclic_p2_or_pq(g):
            found += 1
            assert radon.is_injective(g).injective, g.recipe
    assert found == 85  # of the 163 groups: all but the cyclic and dicyclic ones


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


def test_the_size_rule_takes_a_one_row_family_to_coset_sums(monkeypatch):
    # C5040's maximal family is one row of 5040 cells, where a product by z
    # on classes would read 5040^2: the verdict sums over its cosets, and
    # builds no row
    built, listed, nullities = [], [], []
    build, family, nullity = radon._build_system, radon._family_subgroups, centre.nullity
    monkeypatch.setattr(radon, "_build_system", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(
        radon, "_family_subgroups", lambda *a: listed.append(1) or family(*a)
    )
    monkeypatch.setattr(
        centre, "nullity", lambda *a: nullities.append(nullity(*a)) or nullities[-1]
    )
    verdict = radon.is_injective(groups.from_name("C5040"), "maximal")
    assert (verdict.rows, verdict.rank, verdict.kernel_dim) == (1, 1, 5039)
    assert built == [] and listed == [1] and nullities == [5039]


def test_a_deficient_spectrum_matches_its_rows(monkeypatch):
    # the verdict reads no row; the rows' rank mod P and their proven kernel
    # are its oracle, and a nullity one off shows against them
    g = groups.from_name("C240")
    verdict = radon.is_injective(g)
    sys = radon.build_system(g, "prime")
    assert verdict.rows == sys.nrows >= g.order and verdict.kernel_dim == 64
    assert len(sys._echelon) == verdict.rank
    assert radon.kernel(sys).dim == verdict.kernel_dim
    nullity = centre.nullity
    monkeypatch.setattr(centre, "nullity", lambda *a: nullity(*a) + 1)
    assert radon.is_injective(g).kernel_dim == 65 != radon.kernel(sys).dim


def test_two_nullities_of_one_group_find_its_classes_once(monkeypatch):
    calls, find = [], groups.conjugacy_classes
    monkeypatch.setattr(groups, "conjugacy_classes", lambda g: calls.append(1) or find(g))
    g = groups.from_name("Dic15")
    z = centre.prime_element(g)[0]
    assert centre.nullity(g, z) == centre.nullity(g, 2 * z) == 16
    assert calls == [1]
    labels, reps = g._classes
    assert not labels.flags.writeable and not reps.flags.writeable
