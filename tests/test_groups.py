import itertools
import json
import math
import warnings
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coset_radon import cli, geodesics, groups, iso, radon, verify
from coset_radon.errors import (
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


def test_cyclic_orders():
    g = groups.make_cyclic(6)
    assert g.order == 6
    assert g.elt_order == (1, 6, 3, 2, 3, 6)


@pytest.mark.parametrize("n", [1, 2, 30, 5040])
def test_cyclic_table_is_addition_mod_n(n):
    i = np.arange(n)
    assert np.array_equal(groups.make_cyclic(n).table, (i[:, None] + i) % n)


def test_cyclic_rejects_nonpositive():
    with pytest.raises(InvalidOrderError):
        groups.make_cyclic(0)


@pytest.mark.parametrize("make, message", [
    (groups.make_dihedral, "dihedral parameter must be >= 1, got 0"),
    (groups.make_symmetric, "symmetric degree must be >= 1, got 0"),
    (groups.make_alternating, "alternating degree must be >= 1, got 0"),
])
def test_families_reject_parameter_zero(make, message):
    with pytest.raises(InvalidOrderError) as info:
        make(0)
    assert str(info.value) == message


def test_trivial_group():
    g = groups.make_trivial()
    assert g.order == 1
    assert g.table.tolist() == [[0]]


def test_dihedral_structure():
    d4 = groups.make_dihedral(4)
    assert d4.order == 8
    # reflections are the ids n..2n-1 and square to the identity
    for k in range(4, 8):
        assert d4.table[k, k] == 0
    assert not groups.is_abelian(d4)
    assert groups.is_abelian(groups.make_dihedral(2))


def test_dihedral_degenerate_cases():
    assert groups.make_dihedral(1).order == 2
    d2 = groups.make_dihedral(2)
    assert sorted(d2.elt_order) == [1, 2, 2, 2]


def test_dicyclic_presentation_relations():
    """a^{2n} = e, b^2 = a^n, and ab = ba^{-1} in the id encoding."""
    for n in (2, 3, 5):
        g = groups.make_dicyclic(n)
        a, b = 1, 2 * n
        assert g.power(a, 2 * n) == 0
        assert g.table[b, b] == g.power(a, n)
        assert g.table[a, b] == g.table[b, g.inv[a]]


def test_dicyclic_order_profile():
    q8 = groups.make_dicyclic(2)
    assert sorted(q8.elt_order) == [1, 2, 4, 4, 4, 4, 4, 4]
    # outside the cyclic half every element has order four
    dic6 = groups.make_dicyclic(6)
    assert all(dic6.elt_order[x] == 4 for x in range(12, 24))


def test_symmetric_and_alternating():
    s4 = groups.make_symmetric(4)
    a4 = groups.make_alternating(4)
    assert s4.order == 24
    assert a4.order == 12
    assert groups.make_alternating(2).order == 1
    assert groups.make_alternating(3).order == 3


def test_symmetric_cap_applies_before_building(monkeypatch):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "100")
    with pytest.raises(SizeLimitError):
        groups.make_symmetric(5)


def test_absurd_degree_refused_at_once():
    # the factorial stops once it passes the cap; S3000000! alone takes
    # over a minute to multiply out
    for spec in ("S3000000", "A3000000", "C2xS3000000"):
        t0 = perf_counter()
        with pytest.raises(SizeLimitError, match="more than 2"):
            groups.from_name(spec)
        assert perf_counter() - t0 < 1
    # the size read off lgamma is the exact power of two below the order
    for n in (21, 170, 3000):
        for kind, order in (("S", math.factorial(n)), ("A", math.factorial(n) // 2)):
            with pytest.raises(SizeLimitError) as err:
                groups.from_name(f"{kind}{n}")
            assert f"more than 2^{order.bit_length() - 1}," in str(err.value)
    with pytest.raises(SizeLimitError, match="order 2432902008176640000,"):
        groups.from_name("S20")


@pytest.mark.parametrize("bits", [64, 65, 100])
def test_cap_names_the_power_of_two_below_an_order(monkeypatch, bits):
    monkeypatch.delenv("COSET_RADON_MAX_ORDER", raising=False)
    for order, below in ((2**bits, bits - 1), (2**bits + 1, bits)):
        with pytest.raises(SizeLimitError) as err:
            groups.from_name(f"C{order}")
        assert str(err.value) == (
            f"C{order} has order more than 2^{below}, above the cap of 5040"
        )
    # 2^64 - 1 still prints in full
    with pytest.raises(SizeLimitError, match=f"^C{2**64 - 1} has order {2**64 - 1},"):
        groups.from_name(f"C{2**64 - 1}")


def test_direct_product_orders_multiply():
    g = groups.make_direct_product(groups.make_cyclic(3), groups.make_cyclic(4))
    assert g.order == 12
    assert groups.is_cyclic(g)  # coprime factors


def test_from_cayley_table_relabels_identity():
    # identity sits at position 1 in this C2 copy
    t = [[1, 0], [0, 1]]
    g = groups.from_cayley_table(t)
    assert g.table[0, 0] == 0
    assert g.order == 2


def test_from_cayley_table_rejects_magma():
    # repeated rows break the latin property before anything else is checked
    with pytest.raises(GroupValidationError):
        groups.from_cayley_table([[1, 0], [1, 0]])


def test_from_cayley_table_rejects_repeated_column():
    # every row is a permutation and 0 is an identity, but column 1 is not
    with pytest.raises(GroupValidationError, match="column 1 "):
        groups.from_cayley_table([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def test_from_cayley_table_rejects_identityless_latin_square():
    # subtraction mod 3: latin, 0 is a right identity but nothing is two-sided
    t = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(MissingIdentityError):
        groups.from_cayley_table(t)


def test_nonassociative_loop_rejected():
    # a loop: identity 0, every element self-inverse, rows and columns
    # permutations, yet (1*1)*2 = 2 while 1*(1*2) = 4
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    # self-check that the counterexample is genuine before asserting the raise
    def mul(a, b):
        return t[a][b]

    assert all(t[a][a] == 0 for a in range(5))
    assert mul(mul(1, 1), 2) != mul(1, mul(1, 2))
    with pytest.raises(AssociativityError):
        groups.from_cayley_table(t)


def test_semidirect_validates_action():
    c7 = groups.make_cyclic(7)
    c3 = groups.make_cyclic(3)
    action = [[(pow(2, k, 7) * x) % 7 for x in range(7)] for k in range(3)]
    g = groups.make_semidirect(c7, c3, action)
    assert g.order == 21
    assert not groups.is_abelian(g)

    bad = [list(range(7)) for _ in range(3)]
    bad[1] = [0, 2, 1, 3, 4, 5, 6]  # swaps 1 and 2: not an automorphism of C7
    with pytest.raises(NotAutomorphismError):
        groups.make_semidirect(c7, c3, bad)


def test_semidirect_action_that_is_no_homomorphism():
    # inversion is an automorphism of C3, but the identity of C2 must act
    # trivially: phi_0 o phi_0 is not phi_0
    c3, c2 = groups.make_cyclic(3), groups.make_cyclic(2)
    with pytest.raises(NotHomomorphismError) as info:
        groups.make_semidirect(c3, c2, [[0, 2, 1], [0, 2, 1]])
    assert info.value.pair == (0, 0)


@pytest.mark.parametrize("rows,message", [
    (1, "the action lists 1 permutation, but the acting group has 3 elements"),
    (4, "the action lists 4 permutations, but the acting group has 3 elements"),
])
def test_semidirect_action_of_the_wrong_length(rows, message):
    c7, c3 = groups.make_cyclic(7), groups.make_cyclic(3)
    with pytest.raises(InvalidActionError) as info:
        groups.make_semidirect(c7, c3, [list(range(7))] * rows)
    assert type(info.value) is InvalidActionError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "row", [[0, 1, 2], [0, 1, 2, 3, 4, 5, 6.0], [0, 1, 1, 3, 4, 5, 6], "0123456"]
)
def test_semidirect_action_that_is_no_permutation(row):
    # a short row, a non-int, a repeated id, not a list
    c7, c3 = groups.make_cyclic(7), groups.make_cyclic(3)
    action = [list(range(7)), row, list(range(7))]
    with pytest.raises(InvalidActionError) as info:
        groups.make_semidirect(c7, c3, action)
    assert type(info.value) is InvalidActionError
    assert "element 1 is not a permutation of 0..6" in str(info.value)
    assert "(-1, -1)" not in str(info.value)


def test_subgroup_helpers():
    g = groups.make_cyclic(12)
    sub = groups.cyclic_subgroup(g, 4)
    assert sub.elements == (0, 4, 8)
    cosets = groups.left_cosets(g, sub)
    assert len(cosets) == 4
    assert all(len(c) == 3 for c in cosets)
    with pytest.raises(NotSubgroupError):
        groups.subgroup_from_elements(g, [0, 1, 2])
    with pytest.raises(NotSubgroupError, match="^subgroup must contain the identity 0$"):
        groups.subgroup_from_elements(g, [4, 8])
    # inverses are there, but 1*1 = 2 is not
    with pytest.raises(NotSubgroupError, match=r"^set is not closed: 1\*1 escapes it$"):
        groups.subgroup_from_elements(g, [0, 1, 11])


def _c3xc3_reconstruction(x):
    sys = radon.build_system(groups.from_name("C3xC3"), "prime")
    return radon.reconstruct_cpxcp(sys, radon.apply(sys, range(9)), x)


def _c3xc3_orbit(x):
    return geodesics.composite_orbit(
        groups.from_name("C3xC3"), geodesics.Homomorphism(3, 1), x
    )


def _c4_subgroup(x):
    return groups.cyclic_subgroup(groups.make_cyclic(4), x)


def _c4_set(x):
    return groups.subgroup_from_elements(groups.make_cyclic(4), [0, 2, x])


@pytest.mark.parametrize(
    "call, x",
    [
        (call, x)
        for call, n in [
            (_c3xc3_reconstruction, 9),
            (_c3xc3_orbit, 9),
            (_c4_subgroup, 4),
            (_c4_set, 4),
        ]
        for x in (n, -1, 10**9, True, 2.0, "1", None)
    ]
    + [(_c4_set, 7)],
)
def test_public_entry_points_refuse_a_bad_element_id(call, x):
    with pytest.raises(InvalidOrderError) as info:
        call(x)
    message = str(info.value)
    assert len(message.splitlines()) == 1 and repr(x) in message


def test_quotient_of_dihedral_by_rotations():
    d4 = groups.make_dihedral(4)
    rot = groups.subgroup_from_elements(d4, [0, 1, 2, 3])
    q = groups.quotient(d4, rot)
    assert q.order == 2


def test_quotient_requires_normality():
    d4 = groups.make_dihedral(4)
    refl = groups.subgroup_from_elements(d4, [0, 4])
    assert groups.is_normal(d4, refl) is not None
    with pytest.raises(NotNormalError):
        groups.quotient(d4, refl)


def test_invariant_factors():
    g = groups.make_direct_product(groups.make_cyclic(2), groups.make_cyclic(4))
    assert groups.invariant_factors(g) == [2, 4]
    g2 = groups.make_direct_product(groups.make_cyclic(6), groups.make_cyclic(6))
    assert groups.invariant_factors(g2) == [6, 6]
    assert groups.invariant_factors(groups.make_cyclic(6)) == [6]
    with pytest.raises(NotAbelianError):
        groups.invariant_factors(groups.make_dihedral(3))


def test_invariant_factors_divisibility_chain():
    cases = [
        [2, 2, 3],  # C2 x C2 x C3 -> [2, 6]
        [4, 6],  # -> [2, 12]
        [8, 2, 2],
    ]
    for factors in cases:
        g = groups.make_cyclic(factors[0])
        for m in factors[1:]:
            g = groups.make_direct_product(g, groups.make_cyclic(m))
        out = groups.invariant_factors(g)
        assert all(out[i + 1] % out[i] == 0 for i in range(len(out) - 1))
        prod = 1
        for d in out:
            prod *= d
        assert prod == g.order


def _quotient_chain_basis(g):
    """The abelian basis the quotient recursion found: split off the least
    element x of largest order d, find the basis of G/<x> the same way, and
    lift each quotient generator y of order m to y * x^-(s/m), where
    y^m = x^s. Kept as the oracle of the greedy census pass."""
    if g.order == 1:
        return []
    d = max(g.elt_order)
    x = g.elt_order.index(d)
    powers = g.powers(x)
    log = {p: k for k, p in enumerate(powers)}
    q, proj = groups.quotient_with_projection(
        g, groups.SubgroupSet(tuple(sorted(powers)), x)
    )
    out = [(x, d)]
    for yq, m in _quotient_chain_basis(q):
        y = proj.index(yq)
        s = log[g.power(y, m)]
        assert s % m == 0  # the maximal order of x makes s a multiple of m
        out.append((g.table.item(y, powers[-(s // m) % d]), m))
    return out


_ABELIAN_CORPUS = verify.abelian_groups_upto(64)
_BIG_ABELIAN = [
    "C5040", "x".join(["C2"] * 12), "C12xC12", "C2xC4xC3xC5", "C4xC4xC2",
    "C8xC4xC2", "C6xC6xC6", "C9xC3xC3", "C30xC30",
]


def test_invariant_factors_match_the_quotient_chain_of_abelian_basis():
    assert len(_ABELIAN_CORPUS) == 116
    for g in _ABELIAN_CORPUS:
        chain = [d for _, d in reversed(_quotient_chain_basis(g))]
        assert groups.invariant_factors(g) == chain, g.recipe
    assert groups.invariant_factors(groups.make_trivial()) == []


def test_abelian_basis_is_the_quotient_chain_basis_on_named_groups():
    gs = _ABELIAN_CORPUS + [groups.from_name(name) for name in _BIG_ABELIAN]
    assert len(gs) == 125
    for g in gs:
        assert groups.abelian_basis(g) == _quotient_chain_basis(g), g.recipe
    assert groups.abelian_basis(groups.make_trivial()) == []


def _relabelled(g, rng):
    """g rebuilt from its table with element x renamed perm[x]."""
    perm = rng.permutation(g.order)
    out = np.empty((g.order, g.order), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[g.table]
    return groups.from_cayley_table(out)


def test_abelian_basis_of_a_relabelled_table_is_a_basis_with_the_census_orders():
    rng = np.random.default_rng(7)
    other = 0  # tables on which the quotient chain chose another basis
    for g in _ABELIAN_CORPUS + [groups.from_name("C4xC4xC2")]:
        h = _relabelled(g, rng)
        basis = groups.abelian_basis(h)
        other += basis != _quotient_chain_basis(h)
        assert [d for _, d in basis] == groups.invariant_factors(h)[::-1]
        # the products of basis powers are every element, each exactly once
        elts = np.zeros(1, dtype=np.intp)
        for x, d in basis:
            elts = h.table[elts[:, None], h.powers(x, d)].ravel()
        assert sorted(elts.tolist()) == list(range(h.order)), g.recipe
        got, want = (cli._spectral_abelian_payload(k, 1e-9)[0] for k in (h, g))
        for key in ("group", "plancherel_defect"):
            del got[key], want[key]
        assert got == want, g.recipe
    assert other > 0  # 23 of the 117 with this seed


def test_abelian_basis_builds_no_quotient_and_proves_no_table(monkeypatch):
    gs = _ABELIAN_CORPUS + [groups.from_name(n) for n in ("C5040", _BIG_ABELIAN[1])]

    def refuse(*args):
        raise AssertionError("abelian_basis built a group")

    monkeypatch.setattr(groups, "quotient_with_projection", refuse)
    monkeypatch.setattr(groups, "_build", refuse)
    monkeypatch.setattr(groups, "_wrap", refuse)
    for g in gs:
        orders = [d for _, d in groups.abelian_basis(g)]
        assert orders == groups.invariant_factors(g)[::-1]


def test_from_name_grammar():
    assert groups.from_name("C6").order == 6
    assert groups.from_name("C2xC3").order == 6
    assert groups.is_cyclic(groups.from_name("C2xC3"))
    assert groups.from_name("Dic2").order == 8
    assert groups.from_name("S4").order == 24
    assert groups.from_name("D3xC2").order == 12
    for bad in ("", "C", "x", "C2x", "Q8", "c6"):
        with pytest.raises(GroupSpecError):
            groups.from_name(bad)


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "10")
    with pytest.raises(SizeLimitError):
        groups.make_cyclic(11)
    monkeypatch.delenv("COSET_RADON_MAX_ORDER")
    assert groups.make_cyclic(11).order == 11


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_cyclic_inverse_and_power_laws(n):
    g = groups.make_cyclic(n)
    for x in range(n):
        assert g.table[x, g.inv[x]] == 0
        assert g.power(x, n) == 0
        assert g.power(x, -1) == g.inv[x]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
def test_product_element_orders_are_lcms(na, nb):
    a = groups.make_cyclic(na)
    b = groups.make_cyclic(nb)
    g = groups.make_direct_product(a, b)
    for i1 in range(na):
        for i2 in range(nb):
            o1, o2 = a.elt_order[i1], b.elt_order[i2]
            lcm = o1 * o2 // __import__("math").gcd(o1, o2)
            assert g.elt_order[i1 * nb + i2] == lcm


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=10))
def test_dihedral_conjugation_inverts_rotations(n):
    g = groups.make_dihedral(n)
    s = n  # a reflection
    for k in range(n):
        assert g.table[g.table[s, k], g.inv[s]] == g.inv[k]


# ---------------------------------------------------------------------------
# element ids against pure-Python definitions


def _perm_table(perms):
    """Composition table (p*q)[k] = p[q[k]] of a list of permutations."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def _is_even(p):
    pairs = itertools.combinations(range(len(p)), 2)
    return sum(p[i] > p[j] for i, j in pairs) % 2 == 0


def _dihedral_table(n):
    # id f*n + k is s^f r^k, with r^n = s^2 = 1 and r^k s = s r^-k
    def mul(x, y):
        (f1, k1), (f2, k2) = divmod(x, n), divmod(y, n)
        return (f1 ^ f2) * n + (k2 + (-k1 if f2 else k1)) % n

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def _dicyclic_table(n):
    # id m*2n + k is b^m a^k, with a^2n = 1, b^2 = a^n and a^k b = b a^-k
    def mul(x, y):
        (m1, k1), (m2, k2) = divmod(x, 2 * n), divmod(y, 2 * n)
        k = k2 + (-k1 if m2 else k1) + (n if m1 and m2 else 0)
        return (m1 ^ m2) * 2 * n + k % (2 * n)

    return [[mul(x, y) for y in range(4 * n)] for x in range(4 * n)]


def _product_table(t1, t2):
    n2 = len(t2)
    ids = [(a1, a2) for a1 in range(len(t1)) for a2 in range(n2)]
    return [[t1[a1][b1] * n2 + t2[a2][b2] for b1, b2 in ids] for a1, a2 in ids]


def test_element_ids_match_definitions():
    s3 = _perm_table(sorted(itertools.permutations(range(3))))
    c4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    # C7 x| C3 with h acting as multiplication by 2^h; id n*3 + h
    ids = [(n1, h1) for n1 in range(7) for h1 in range(3)]
    frob = [
        [((n1 + pow(2, h1, 7) * n2) % 7) * 3 + (h1 + h2) % 3 for n2, h2 in ids]
        for n1, h1 in ids
    ]
    action = [[(pow(2, k, 7) * x) % 7 for x in range(7)] for k in range(3)]
    c7, c3 = groups.make_cyclic(7), groups.make_cyclic(3)
    frob_group = groups.make_semidirect(c7, c3, action)
    s4 = sorted(itertools.permutations(range(4)))
    a5 = [p for p in itertools.permutations(range(5)) if _is_even(p)]
    cases = [
        (groups.make_symmetric(4), _perm_table(s4)),
        (groups.make_alternating(5), _perm_table(a5)),
        (groups.make_dihedral(6), _dihedral_table(6)),
        (groups.make_dicyclic(3), _dicyclic_table(3)),
        (groups.from_name("C4xS3"), _product_table(c4, s3)),
        (frob_group, frob),
    ]
    for g, expected in cases:
        assert g.table.tolist() == expected, g.recipe


# ---------------------------------------------------------------------------
# the order cap and exact associativity


def test_order_cap_checked_before_any_table(monkeypatch):
    c72, c71 = groups.make_cyclic(72), groups.make_cyclic(71)

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built above the cap")

    monkeypatch.setattr(groups, "_build", no_table)
    monkeypatch.setattr(groups, "_wrap", no_table)
    for spec in ("C5041", "D2521", "Dic1261", "C72xC71"):
        with pytest.raises(SizeLimitError):
            groups.from_name(spec)
    # each constructor checks the cap itself, not only from_name
    for make in (
        lambda: groups.make_cyclic(5041),
        lambda: groups.make_dihedral(2521),
        lambda: groups.make_dicyclic(1261),
        lambda: groups.make_direct_product(c72, c71),
        lambda: groups.make_semidirect(c72, c71, []),
        lambda: groups.from_cayley_table([[]] * 5041),
    ):
        with pytest.raises(SizeLimitError):
            make()


def _reduced_latin_squares(n):
    """Every latin square on 0..n-1 whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[r] + [0] * (n - 1) for r in range(1, n)]
    in_row = [{r} for r in range(n)]
    in_col = [{c} for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        r, c = cells[k]
        for v in range(n):
            if v not in in_row[r] and v not in in_col[c]:
                rows[r][c] = v
                in_row[r].add(v)
                in_col[c].add(v)
                yield from fill(k + 1)
                in_row[r].discard(v)
                in_col[c].discard(v)

    return list(fill(0))


def _first_nonassociative_triple(t):
    n = len(t)
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return (a, b, c)
    return None


def test_light_test_agrees_with_brute_force_on_small_latin_squares(monkeypatch):
    # blocks of one or two rows, so the blocked comparison is exercised too
    monkeypatch.setattr(groups, "_BLOCK_CELLS", 8)
    counts = []
    for n in range(1, 7):
        squares = _reduced_latin_squares(n)
        counts.append(len(squares))
        for t in squares:
            if _first_nonassociative_triple(t) is None:
                assert groups.from_cayley_table(t).table.tolist() == t
                continue
            with pytest.raises(AssociativityError) as info:
                groups.from_cayley_table(t)
            a, b, c = info.value.triple
            assert t[t[a][b]][c] != t[a][t[b][c]]
    assert counts == [1, 1, 1, 4, 56, 9408]


def test_large_nonassociative_table_rejected():
    # C2 x C500 with one intercalate swapped: rows a and a*z, columns c and
    # c*z, where z = (1, 0) has order 2; still latin with identity 0
    n = 1000

    def mul(x, y):
        return ((x // 500 + y // 500) % 2) * 500 + (x % 500 + y % 500) % 500

    t = [[mul(x, y) for y in range(n)] for x in range(n)]
    z, a, c = 500, 3, 7
    for x in (a, mul(a, z)):
        t[x][c], t[x][mul(c, z)] = t[x][mul(c, z)], t[x][c]
    with pytest.raises(AssociativityError) as info:
        groups.from_cayley_table(t)
    x, y, w = info.value.triple
    assert t[t[x][y]][w] != t[x][t[y][w]]


# ---------------------------------------------------------------------------
# the proof without the latin property: identity, a 0 in every row, Light


def _is_group(t):
    """Brute force on a table whose identity is 0: every triple associates
    and every element has a two-sided inverse."""
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in itertools.product(range(n), repeat=3)
    ) and all(any(t[a][b] == 0 == t[b][a] for b in range(n)) for a in range(n))


def _old_order_error(t):
    """(type, message) that a check of the latin property, then the
    identity, then associativity raises on a table whose identity is 0;
    None for a group. The message of an AssociativityError names whichever
    failing triple Light's test meets first, so it is None here."""
    n = len(t)
    ids = list(range(n))
    for i in range(n):
        if sorted(t[i]) != ids:
            return GroupValidationError, f"row {i} of the table is not a permutation"
    for j in range(n):
        if sorted(r[j] for r in t) != ids:
            return GroupValidationError, f"column {j} of the table is not a permutation"
    return None if _is_group(t) else (AssociativityError, None)


def _tables_with_identity_0():
    """Every table on 0..n-1 with identity 0 for n <= 3, the reduced latin
    squares of order 5, then seeded random tables of orders 4 to 6: cells
    drawn freely, then with a 0 put into every row that lacks one, then
    group tables relabelled with 0 fixed."""
    for n in range(1, 4):
        free = [(i, j) for i in range(1, n) for j in range(1, n)]
        for cells in itertools.product(range(n), repeat=len(free)):
            t = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
            for (i, j), v in zip(free, cells):
                t[i][j] = v
            yield t
    yield from _reduced_latin_squares(5)
    rng = np.random.default_rng(16)
    groups_by_order = {4: ["C4", "C2xC2"], 5: ["C5"], 6: ["C6", "S3"]}
    for n in (4, 5, 6):
        for trial in range(300):
            t = rng.integers(0, n, size=(n, n))
            t[0], t[:, 0] = np.arange(n), np.arange(n)
            if trial % 2:
                for i in range(1, n):
                    if 0 not in t[i]:
                        t[i, rng.integers(1, n)] = 0
            yield t.tolist()
        for name in groups_by_order[n]:
            g = groups.from_name(name).table
            for _ in range(10):
                relabel = np.concatenate([[0], 1 + rng.permutation(n - 1)])
                u = np.empty_like(g)
                u[np.ix_(relabel, relabel)] = relabel[g]
                yield u.tolist()


def test_tables_are_accepted_iff_they_are_groups_and_rejected_as_before():
    kinds = {"group": 0, "latin": 0, "not latin": 0, "a 0 in every row": 0}
    for t in _tables_with_identity_0():
        want = _old_order_error(t)
        if want is None:
            kinds["group"] += 1
            g = groups.from_cayley_table(t)
            assert g.table.tolist() == t
            continue
        latin = want[0] is AssociativityError
        kinds["latin" if latin else "not latin"] += 1
        kinds["a 0 in every row"] += not latin and all(0 in r for r in t)
        with pytest.raises(GroupValidationError) as info:
            groups.from_cayley_table(t)
        if latin:  # any failing triple will do
            x, y, w = info.value.triple
            assert t[t[x][y]][w] != t[x][t[y][w]], t
            want = (AssociativityError, f"associativity fails at triple ({x}, {y}, {w})")
        assert (type(info.value), str(info.value)) == want, t
    assert min(kinds.values()) >= 20, kinds


def _group_tables_with_a_repeated_cell():
    """Group tables with one nonzero cell off row and column 0 overwritten
    by another cell of its row: identity 0 and a 0 in every row remain,
    the latin property does not."""
    rng = np.random.default_rng(7)
    for name in ("S3", "C6", "Dic3", "C2xC2xC2", "A4", "D5", "C3xS3"):
        g = groups.from_name(name).table
        n = len(g)
        for _ in range(40):
            t = g.copy()
            x, y, z = rng.integers(1, n, size=3)
            t[x, y] = t[x, z]
            if y != z and g[x, y] != 0:
                yield t


def test_build_alone_rejects_tables_that_are_not_latin():
    raised = set()
    for t in _group_tables_with_a_repeated_cell():
        with pytest.raises(GroupValidationError) as info:
            groups._build(t, "broken")
        raised.add(type(info.value))
    for t in _tables_with_identity_0():
        if not _is_group(t):
            with pytest.raises(GroupValidationError) as info:
                groups._build(np.array(t, dtype=np.int32), "broken")
            raised.add(type(info.value))
    assert raised == {AssociativityError, MissingInverseError}


def test_each_generator_at_least_doubles_the_reached_set(monkeypatch):
    # the log2(n) bound, on every table that reaches Light's test
    close, grown = groups._close, []

    def recording(t, reached, gens):
        before = np.count_nonzero(reached)
        close(t, reached, gens)
        grown.append((before, np.count_nonzero(reached)))

    monkeypatch.setattr(groups, "_close", recording)
    tables = [np.array(t, dtype=np.int32) for t in _tables_with_identity_0()]
    for t in tables + list(_group_tables_with_a_repeated_cell()):
        try:
            groups._build(t, "any")
        except GroupValidationError:
            pass
    assert all(after >= 2 * before for before, after in grown)
    assert sum(before > 1 for before, _ in grown) > 20
    monkeypatch.undo()
    bigger = [groups.from_name(s) for s in ("S6", "A7", "C2xC2xC2xC2xC2xC2xC2xC2")]
    for g in verify.groups_upto(64) + bigger:
        assert 2 ** len(g.generators) <= g.order, g.recipe


# ---------------------------------------------------------------------------
# named groups carry their construction's proof; Light's test runs only on
# tables from outside


def test_light_test_runs_only_on_tables_from_outside(monkeypatch):
    quotients, quotient = [], verify.quotient_with_projection
    calls, check = [], groups._check_generator  # Light's comparison, per generator

    def recorded(g, sub):
        quotients.append(sub)
        return quotient(g, sub)

    def counted(t, a):
        calls.append(a)
        check(t, a)

    monkeypatch.setattr(verify, "quotient_with_projection", recorded)
    monkeypatch.setattr(groups, "_check_generator", counted)
    for build in (
        lambda: groups.from_name("A7"),
        lambda: groups.from_name("C2xC2xS3"),
        lambda: groups.make_dihedral(500),
        lambda: groups.make_dicyclic(15),
        verify._quotient_cases,
    ):
        build()
        assert calls == []
    assert quotients
    # one build's worth: one comparison per generator the proof returns
    s4 = groups.make_symmetric(4)
    perm = np.random.default_rng(5).permutation(s4.order)
    raw = np.empty_like(s4.table)
    raw[np.ix_(perm, perm)] = perm[s4.table]
    g = groups.from_cayley_table(raw)
    assert calls == list(g.generators) and len(calls) >= 2
    calls.clear()
    c7, c3 = groups.make_cyclic(7), groups.make_cyclic(3)
    g = groups.make_semidirect(c7, c3, [[x * 2**h % 7 for x in range(7)] for h in range(3)])
    assert calls == list(g.generators) and len(calls) >= 2


def _same_as_the_full_proof(g: groups.GroupTable) -> None:
    """g, as its constructor wrapped it, equals field for field what
    _build's three-step proof makes of the same table."""
    want = groups._build(g.table, g.recipe)
    assert g.table.dtype == np.uint16 and g.table.flags.c_contiguous, g.recipe
    assert not g.table.flags.writeable, g.recipe
    assert (g.order, g.table.tobytes(), g.recipe) == (
        want.order, want.table.tobytes(), want.recipe
    )
    assert g.inv == want.inv, g.recipe
    assert g.elt_order == want.elt_order, g.recipe
    assert g.generators == want.generators, g.recipe
    assert {type(v) for v in g.inv + g.elt_order + g.generators} == {int}, g.recipe


@pytest.mark.parametrize(
    "name",
    ["S5", "S6", "S7", "A3", "A4", "A5", "A6", "A7", "C5040", "Dic1260", "D2520",
     "x".join(["C2"] * 10), "x".join(["C2"] * 12)],
)
def test_named_tables_wrap_as_the_full_proof_builds_them(name):
    _same_as_the_full_proof(groups.from_name(name))


def test_small_groups_and_quotients_wrap_as_the_full_proof_builds_them(monkeypatch):
    quotients, quotient = [], verify.quotient_with_projection

    def recorded(g, sub):
        q, proj = quotient(g, sub)
        quotients.append(q)
        return q, proj

    monkeypatch.setattr(verify, "quotient_with_projection", recorded)
    verify._quotient_cases()
    assert len(quotients) > 1
    for g in verify.groups_upto(64) + quotients:
        _same_as_the_full_proof(g)


@pytest.mark.parametrize(
    "name", ["A6", "S5", "Dic15", "C360", "C2xC2xC2xC2xC2xC2", "C4xC6xC10", "D25"]
)
def test_element_orders_match_walks_to_the_identity(name):
    g = groups.from_name(name)
    t = g.table.tolist()
    assert [len(_walk(t, x)) for x in range(g.order)] == list(g.elt_order)


def test_accepted_tables_never_check_the_latin_property(monkeypatch):
    def refuse(t):
        raise AssertionError("an accepted table reached the latin check")

    monkeypatch.setattr(groups, "_check_latin", refuse)
    rng = np.random.default_rng(3)
    for name in ("S4", "A5", "Dic5", "C2xC6", "D500"):
        g = groups.from_name(name)
        perm = rng.permutation(g.order)
        relabelled = np.empty_like(g.table)
        relabelled[np.ix_(perm, perm)] = perm[g.table]
        h = groups.from_cayley_table(relabelled.tolist())
        assert h.order == g.order and sorted(h.elt_order) == sorted(g.elt_order)
    q = groups.quotient(groups.from_name("D6"), groups.subgroup_from_elements(
        groups.from_name("D6"), [0, 2, 4]))
    assert q.order == 4
    # a rejected table still reaches it, before its own error is raised
    with pytest.raises(AssertionError, match="latin check"):
        groups.from_cayley_table([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def _first_bad_row_message(raw):
    """The message of the row-by-row walk over the cells of a square list
    of rows, or None when every cell is an int in range."""
    n = len(raw)
    for i, r in enumerate(raw):
        if not isinstance(r, (list, tuple)):
            return f"row {i} is not a list"
        if len(r) != n:
            return f"row {i} has length {len(r)}, expected {n}"
        for v in r:
            if type(v) is not int or not 0 <= v < n:
                return f"row {i} holds {v!r}, outside 0..{n - 1}"
    return None


_CELLS = st.integers(0, 3) | st.sampled_from(
    [-1, 4, 2**31, 2**40, -(2**63), 2**70, 1.0, True, False, "1", None]
)


@given(rows=st.lists(
    st.lists(_CELLS, min_size=3, max_size=5) | st.sampled_from([3, "row", (0, 1, 2, 3)]),
    min_size=4, max_size=4,
))
@settings(max_examples=300, deadline=None)
def test_cell_errors_name_the_first_bad_row(rows):
    want = _first_bad_row_message(rows)
    if want is None:
        return
    with pytest.raises(GroupValidationError) as info:
        groups.from_cayley_table(rows)
    assert str(info.value) == want


@pytest.mark.parametrize("cell", [2**32, 2**32 + 1, -(2**63), 2**64])
def test_cells_past_int32_are_out_of_range(cell):
    with pytest.raises(GroupValidationError, match=rf"^row 1 holds {cell}, outside 0\.\.1$"):
        groups.from_cayley_table([[0, 1], [1, cell]])


def test_cells_that_numpy_1_would_wrap_are_out_of_range(monkeypatch):
    # numpy < 2 casts an int past int32 by wrapping it, with a
    # DeprecationWarning: 2**32 becomes 0, and [[0, 1], [1, 0]] is C2
    array = np.array

    def wrapping(obj, *args, dtype=None, **kwargs):
        if dtype is np.int32 and isinstance(obj, list):
            wide = array(obj, dtype=np.int64)
            if (wide != wide.astype(np.int32)).any():
                warnings.warn("out-of-bound Python integers", DeprecationWarning)
            return wide.astype(np.int32)
        return array(obj, *args, dtype=dtype, **kwargs)

    monkeypatch.setattr(groups.np, "array", wrapping)
    for cell in (2**32, -(2**63), 2**32 + 1):
        with pytest.raises(GroupValidationError, match=rf"^row 1 holds {cell}, outside"):
            groups.from_cayley_table([[0, 1], [1, cell]])
    assert groups.from_cayley_table([[0, 1], [1, 0]]).order == 2


# ---------------------------------------------------------------------------
# array routes against pure-Python definitions on the table's rows


@pytest.fixture(scope="module")
def corpus():
    extra = [groups.from_name(name) for name in ("S4", "A5", "Dic5")]
    return [(g, g.table.tolist()) for g in verify.groups_upto(24) + extra]


def _walk(t, x):
    """x^0, x^1, ... up to the last power before the identity returns."""
    out = [0]
    while t[out[-1]][x] != 0:
        out.append(t[out[-1]][x])
    return out


def test_powers_and_cyclic_subgroups_match_walks(corpus):
    for g, t in corpus:
        for x in range(g.order):
            walk = _walk(t, x)
            assert g.powers(x) == walk
            assert g.powers(x, 2 * len(walk) + 1) == (walk * 3)[: 2 * len(walk) + 1]
            assert groups.cyclic_subgroup(g, x).elements == tuple(sorted(walk))
            inv = t[x].index(0)
            for k in range(-2 * len(walk), 2 * len(walk) + 1):
                base, cur = (x, 0) if k >= 0 else (inv, 0)
                for _ in range(abs(k)):
                    cur = t[cur][base]
                assert g.power(x, k) == cur


def test_left_cosets_match_sorted_products(corpus):
    for g, t in corpus:
        for sub in geodesics.cyclic_subgroups(g):
            want, seen = [], set()
            for x in range(g.order):
                if x not in seen:
                    coset = tuple(sorted(t[x][h] for h in sub.elements))
                    seen.update(coset)
                    want.append(coset)
            assert groups.left_cosets(g, sub) == want, (g.recipe, sub.elements)


def _sorted_gather_cosets(g, sub):
    """The coset array by sorting every row of the gather table[:, H] and
    keeping row x where x is its least member."""
    block = np.sort(g.table[:, list(sub.elements)], axis=1)
    return block[block[:, 0] == np.arange(g.order)]


@pytest.mark.parametrize("cells", [None, 40])
def test_coset_array_keeps_rows_before_sorting(monkeypatch, cells):
    # cells = 40 splits every gather into several row blocks
    if cells:
        monkeypatch.setattr(groups, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(11)
    named = verify.groups_upto(48)
    for g in named + [_relabelled(g, rng) for g in named]:
        whole = groups.SubgroupSet(tuple(range(g.order)))
        for sub in geodesics.cyclic_subgroups(g) + [whole]:
            got, want = groups._left_coset_array(g, sub), _sorted_gather_cosets(g, sub)
            assert got.dtype == want.dtype == np.uint16
            assert np.array_equal(got, want), (g.recipe, sub.elements)


def _first_conjugation_escape(t, inv, elements):
    members = set(elements)
    for x in range(len(t)):
        for h in elements:
            if t[t[x][h]][inv[x]] not in members:
                return (x, h)
    return None


def test_normality_witness_and_quotients_match_definitions(corpus):
    quotients = 0
    for g, t in corpus:
        for sub in geodesics.cyclic_subgroups(g):
            want = _first_conjugation_escape(t, g.inv, sub.elements)
            assert groups.is_normal(g, sub) == want, (g.recipe, sub.elements)
            if want is not None:
                continue
            cosets = groups.left_cosets(g, sub)
            proj = [next(i for i, c in enumerate(cosets) if x in c) for x in range(g.order)]
            table = [[proj[t[a[0]][b[0]]] for b in cosets] for a in cosets]
            q, got = groups.quotient_with_projection(g, sub)
            assert (q.table.tolist(), got) == (table, tuple(proj))
            quotients += 1
    assert quotients > 100


def test_is_abelian_matches_definition(corpus):
    # in these products the first two generators Light's test finds commute
    late = [groups.from_name(name) for name in ("C2xC2xS3", "D4xC2", "Dic3xC2")]
    for g in late:
        a, b = g.generators[:2]
        assert len(g.generators) == 3 and g.table[a, b] == g.table[b, a]
    kinds = set()
    for g, t in corpus + [(g, g.table.tolist()) for g in late]:
        want = all(t[a][b] == t[b][a] for a in range(g.order) for b in range(g.order))
        assert groups.is_abelian(g) == want, g.recipe
        kinds.add(want)
    assert kinds == {True, False}


def test_generating_sequence_is_lights_generators_and_generates(corpus):
    s4 = _relabelled(groups.make_symmetric(4), np.random.default_rng(4))
    extra = [groups.make_symmetric(5), s4]
    for g, t in corpus + [(g, g.table.tolist()) for g in extra]:
        gens = iso.generating_sequence(g)
        assert gens == list(g.generators), g.recipe
        closed, frontier = {0}, [0]
        while frontier:
            cur = frontier.pop()
            for y in (t[cur][s] for s in gens):
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        assert len(closed) == g.order, g.recipe


def _bfs_close(t, reached, gens):
    """A copy of the mask reached, grown by right multiplication by gens
    one element at a time: the breadth-first oracle for groups._close."""
    steps = [t[:, a].tolist() for a in gens]
    seen = reached.copy()
    frontier = np.flatnonzero(seen).tolist()
    while frontier:
        x = frontier.pop()
        for step in steps:
            y = step[x]
            if not seen[y]:
                seen[y] = True
                frontier.append(y)
    return seen


@pytest.mark.parametrize("spec", ["C4096", "S5", "A6", "Dic15"])
def test_close_by_squaring_matches_a_breadth_first_walk(spec):
    g = groups.from_name(spec)
    rng = np.random.default_rng(g.order)
    for trial in range(12):
        reached = rng.random(g.order) < rng.choice([0.0, 0.001, 0.05, 0.5])
        reached[rng.integers(g.order)] |= trial % 2 == 0
        gens = rng.integers(0, g.order, size=rng.integers(0, 4)).tolist()
        want = _bfs_close(g.table, reached, gens)
        groups._close(g.table, reached, gens)
        assert np.array_equal(reached, want), (spec, trial, gens)


def test_light_generators_match_the_breadth_first_closure(monkeypatch):
    corpus = verify.groups_upto(48) + [groups.make_symmetric(5), groups.make_alternating(6)]

    def bfs_in_place(t, reached, gens):
        reached[:] = _bfs_close(t, reached, gens)

    monkeypatch.setattr(groups, "_close", bfs_in_place)
    for g in corpus:
        gens = groups._check_associativity(g.table, np.array(g.elt_order))
        assert tuple(gens) == g.generators, g.recipe


# ---------------------------------------------------------------------------
# one read-only table, and Python ints everywhere it leaks out


def _holomorph_c19() -> groups.GroupTable:
    # C19 x| C18, h acting as multiplication by 2^h, 2 a primitive root mod 19
    action = [[pow(2, h, 19) * x % 19 for x in range(19)] for h in range(18)]
    return groups.make_semidirect(groups.make_cyclic(19), groups.make_cyclic(18), action)


def _file_group(tmp_path, payload) -> groups.GroupTable:
    from coset_radon import cli

    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    return cli.load_group(f"file:{path}")


_S3 = groups.make_symmetric(3).table.tolist()

_ROUTES = {
    "C": lambda _: groups.from_name("C300"),
    "D": lambda _: groups.from_name("D150"),
    "Dic": lambda _: groups.from_name("Dic75"),
    "S": lambda _: groups.from_name("S5"),
    "A": lambda _: groups.from_name("A5"),
    "product": lambda _: groups.from_name("C17xC19"),
    "semidirect": lambda _: _holomorph_c19(),
    "quotient": lambda _: groups.quotient(
        groups.make_symmetric(4),
        groups.subgroup_from_elements(groups.make_symmetric(4), [0, 7, 16, 23]),
    ),
    "canonical-file": lambda tmp: _file_group(tmp, {"table": _S3}),
    "json-file": lambda tmp: _file_group(tmp, {"order": 6, "table": _S3}),
    "list": lambda _: groups.from_cayley_table(_S3),
    "int64-array": lambda _: groups.from_cayley_table(np.array(_S3, dtype=np.int64)),
    "identity-not-0": lambda _: groups.from_cayley_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]]),
}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_route_gives_one_read_only_uint16_table(route, tmp_path):
    g = _ROUTES[route](tmp_path)
    assert g.table.dtype == np.uint16 and g.table.flags.c_contiguous
    assert g.table.shape == (g.order, g.order)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    if route == "identity-not-0":
        assert g.recipe == "table(3)[id was 2]"


def _product_reference(t1: list, t2: list) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for a2 in range(n2)
    ]


@pytest.mark.parametrize("left, right", [("C17", "C19"), ("D10", "Dic5"), ("C2", "C300")])
def test_products_past_255_match_the_definition(left, right):
    g1, g2 = groups.from_name(left), groups.from_name(right)
    want = _product_reference(g1.table.tolist(), g2.table.tolist())
    assert groups.make_direct_product(g1, g2).table.tolist() == want


def test_semidirect_past_255_matches_the_definition():
    tn = groups.make_cyclic(19).table.tolist()
    th = groups.make_cyclic(18).table.tolist()
    phi = [[pow(2, h, 19) * x % 19 for x in range(19)] for h in range(18)]
    want = [
        [tn[n1][phi[h1][n2]] * 18 + th[h1][h2] for n2 in range(19) for h2 in range(18)]
        for n1 in range(19)
        for h1 in range(18)
    ]
    assert _holomorph_c19().table.tolist() == want


def test_scaled_ids_reach_the_largest_multiplier():
    # C1 x C65536 and C2 x C32768 scale ids by a step uint16 cannot hold
    assert groups._scaled_ids(1, 65536).tolist() == [0]
    assert groups._scaled_ids(2, 32768).tolist() == [0, 32768]
    assert groups._scaled_ids(3, 21845).dtype == np.uint16


@pytest.mark.parametrize("cell", [70000, 65536, 65537])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64, None])
def test_cells_past_uint16_are_out_of_range_not_wrapped(cell, dtype):
    # 65536 and 65537 would wrap to 0 and 1, the cells of C2
    raw = [[0, 1], [1, cell]]
    if dtype is not None:
        raw = np.array(raw, dtype=dtype)
    with pytest.raises(GroupValidationError, match=rf"^row 1 holds {cell}, outside 0\.\.1$"):
        groups.from_cayley_table(raw)


def test_cap_never_passes_the_uint16_ceiling(monkeypatch):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "100000")
    assert groups.max_group_order() == groups.MAX_TABLE_ORDER == 65536
    groups._check_cap(65536, "C65536")
    want = "^C65537 has order 65537, above the cap of 65536$"
    with pytest.raises(SizeLimitError, match=want):
        groups._check_cap(65537, "C65537")
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "1000")
    assert groups.max_group_order() == 1000


def test_order_past_the_ceiling_is_refused_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap was checked")

    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "100000")
    for name in ("arange", "array", "empty", "zeros", "ones", "concatenate"):
        monkeypatch.setattr(groups.np, name, refuse)
    for spec in ("C65537", "D32769", "C2xC32769", "S9"):
        with pytest.raises(SizeLimitError, match="above the cap of 65536$"):
            groups.from_name(spec)
    with pytest.raises(SizeLimitError, match="above the cap of 65536$"):
        groups.from_cayley_table([[0]] * 65537)


def test_values_leaving_the_package_are_python_ints():
    def ints(values):
        return all(type(v) is int for v in values)

    for name in ("S4", "Dic3", "C12"):
        g = groups.from_name(name)
        assert ints(g.inv) and ints(g.elt_order)
        for x in range(g.order):
            assert ints(g.powers(x)) and type(g.power(x, -1)) is int
        for sub in geodesics.cyclic_subgroups(g):
            assert ints(sub.elements) and type(sub.generator) is int
            assert all(ints(c) for c in groups.left_cosets(g, sub))
        for geo in geodesics.prime_geodesics(g) + geodesics.maximal_geodesics(g):
            assert type(geo.rep) is int and ints(geo.coset)
    witness = radon.kernel_witness_cyclic(groups.make_cyclic(12))
    assert ints(v.numerator for v in witness)


# ---------------------------------------------------------------------------
# conjugacy classes


@pytest.mark.parametrize("name", ["S4", "S5", "A5", "D4", "Dic2", "Dic3"])
def test_conjugacy_classes_match_brute_force_conjugation(name):
    g = groups.from_name(name)
    t = g.table.tolist()
    n = g.order
    want = {frozenset(t[t[g.inv[b]][x]][b] for b in range(n)) for x in range(n)}
    labels, reps = groups.conjugacy_classes(g)
    got = [frozenset(np.flatnonzero(labels == c).tolist()) for c in range(len(reps))]
    assert set(got) == want and len(got) == len(want)
    assert reps.tolist() == [min(c) for c in got] == sorted(reps.tolist())
    assert reps[0] == 0 and got[0] == {0}


def test_class_counts_of_s6_and_s7():
    assert len(groups.conjugacy_classes(groups.from_name("S6"))[1]) == 11
    assert len(groups.conjugacy_classes(groups.from_name("S7"))[1]) == 15


def test_abelian_classes_are_singletons(corpus):
    for g, _ in corpus:
        labels, reps = groups.conjugacy_classes(g)
        if groups.is_abelian(g):
            assert labels.tolist() == reps.tolist() == list(range(g.order))
        else:
            assert len(reps) < g.order
