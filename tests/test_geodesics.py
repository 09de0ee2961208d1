from hypothesis import given, settings, strategies as st
import pytest

from coset_radon import geodesics, groups, verify
from coset_radon.errors import InvalidOrderError, NoGeodesicsError


def test_homomorphisms_count_c6():
    g = groups.make_cyclic(6)
    assert len(geodesics.homomorphisms_cn(g, 2)) == 1
    assert len(geodesics.homomorphisms_cn(g, 3)) == 2
    # every nontrivial element satisfies x^6 = e
    assert len(geodesics.homomorphisms_cn(g, 6)) == 5


def test_homomorphisms_respect_element_order():
    g = groups.make_dihedral(4)
    for hom in geodesics.homomorphisms_cn(g, 4):
        assert g.elt_order[hom.image_generator] in (2, 4)
        assert hom.nontrivial


def test_homomorphisms_domain_too_small():
    g = groups.make_cyclic(4)
    with pytest.raises(InvalidOrderError):
        geodesics.homomorphisms_cn(g, 1)


def test_cyclic_subgroups_c12():
    g = groups.make_cyclic(12)
    subs = geodesics.cyclic_subgroups(g)
    # one nontrivial cyclic subgroup per divisor 2, 3, 4, 6, 12
    assert [len(s) for s in subs] == [2, 3, 4, 6, 12]


def test_cyclic_subgroups_dihedral_4():
    g = groups.make_dihedral(4)
    subs = geodesics.cyclic_subgroups(g)
    orders = sorted(len(s) for s in subs)
    # the rotation <r^2>, four reflections, and <r>
    assert orders == [2, 2, 2, 2, 2, 4]


def test_maximal_subgroups_cyclic_is_whole_group():
    g = groups.make_cyclic(12)
    subs = geodesics.maximal_cyclic_subgroups(g)
    assert len(subs) == 1
    assert len(subs[0]) == 12


def test_maximal_subgroups_d4():
    g = groups.make_dihedral(4)
    subs = geodesics.maximal_cyclic_subgroups(g)
    # <r> swallows <r^2>; the four reflections survive
    assert sorted(len(s) for s in subs) == [2, 2, 2, 2, 4]


def test_prime_geodesic_counts_frozen():
    # row counts double-checked by hand: sum over prime-order subgroups
    # of the index [G : H]
    expected = {
        "C6": 5,
        "D4": 20,
        "D5": 27,
        "Dic2": 4,
        "S4": 140,
    }
    for name, count in expected.items():
        g = groups.from_name(name)
        assert len(geodesics.prime_geodesics(g)) == count, name


def test_maximal_geodesic_counts_frozen():
    expected = {
        "C12": 1,
        "C4xC2": 12,
        "C6xC6": 72,
    }
    for name, count in expected.items():
        g = groups.from_name(name)
        assert len(geodesics.maximal_geodesics(g)) == count, name


def test_geodesics_partition_per_subgroup():
    g = groups.make_dihedral(6)
    rows = geodesics.prime_geodesics(g)
    by_sub = {}
    for geo in rows:
        by_sub.setdefault(geo.subgroup.elements, []).append(geo.coset)
    for cosets in by_sub.values():
        flat = sorted(x for c in cosets for x in c)
        assert flat == list(range(g.order))


def test_geodesic_reps_are_coset_minima():
    g = groups.make_dicyclic(3)
    for geo in geodesics.prime_geodesics(g):
        assert geo.rep == min(geo.coset)
        assert geo.coset == tuple(sorted(geo.coset))


def test_no_duplicate_geodesics():
    g = groups.make_symmetric(4)
    rows = geodesics.prime_geodesics(g)
    keys = {(geo.subgroup.elements, geo.coset) for geo in rows}
    assert len(keys) == len(rows)


def test_translation_permutes_geodesics():
    # left translation by any element maps the geodesic family to itself
    g = groups.make_dihedral(4)
    rows = geodesics.prime_geodesics(g)
    cosets = {geo.coset for geo in rows}
    for a in range(g.order):
        for geo in rows:
            shifted = tuple(sorted(g.table[a, list(geo.coset)].tolist()))
            assert shifted in cosets


def test_conjugation_permutes_subgroups():
    g = groups.make_symmetric(4)
    subs = {s.elements for s in geodesics.cyclic_subgroups(g)}
    for a in range(g.order):
        for elems in subs:
            conj = tuple(sorted(g.table[g.table[a, list(elems)], g.inv[a]].tolist()))
            assert conj in subs


def test_composite_orbit_multiplicity():
    g = groups.make_cyclic(6)
    # generator 3 has order 2; a C_4 orbit covers its coset twice
    hom = geodesics.Homomorphism(4, 3)
    orbit = geodesics.composite_orbit(g, hom, 1)
    assert orbit == (1, 1, 4, 4)


def test_composite_orbit_matches_coset():
    g = groups.make_dihedral(3)
    for hom in geodesics.homomorphisms_cn(g, 6):
        sub = groups.cyclic_subgroup(g, hom.image_generator)
        for x in range(g.order):
            orbit = geodesics.composite_orbit(g, hom, x)
            coset = tuple(sorted(g.table[x, list(sub.elements)].tolist()))
            mult = 6 // len(sub)
            assert orbit == tuple(sorted(coset * mult))


def test_trivial_group_has_no_geodesics():
    g = groups.make_trivial()
    with pytest.raises(NoGeodesicsError):
        geodesics.prime_geodesics(g)
    with pytest.raises(NoGeodesicsError):
        geodesics.maximal_geodesics(g)


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=25, deadline=None)
def test_cyclic_prime_row_count(n):
    g = groups.make_cyclic(n)
    rows = geodesics.prime_geodesics(g)
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    assert len(rows) == sum(n // p for p in primes)
    assert all(len(geo.coset) in primes for geo in rows)


@given(st.integers(min_value=2, max_value=9))
@settings(max_examples=8, deadline=None)
def test_dihedral_geodesics_have_prime_length(n):
    g = groups.make_dihedral(n)
    for geo in geodesics.prime_geodesics(g):
        length = len(geo.coset)
        assert length > 1
        assert all(length % q for q in range(2, length))


def _maximal_by_definition(g):
    """Cyclic subgroups that no other cyclic subgroup strictly contains."""
    subs = geodesics.cyclic_subgroups(g)
    sets = [frozenset(s.elements) for s in subs]
    return [s for s, a in zip(subs, sets) if not any(a < b for b in sets)]


def test_maximal_cyclic_subgroups_match_definition():
    corpus = verify.groups_upto(48) + [
        groups.from_name(name) for name in ("S5", "A6", "C12xC12")
    ]
    for g in corpus:
        assert geodesics.maximal_cyclic_subgroups(g) == _maximal_by_definition(g), g.recipe
    assert geodesics.maximal_cyclic_subgroups(groups.make_trivial()) == []
