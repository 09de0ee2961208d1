import gc

import pytest

from coset_radon import groups, iso


def test_generating_sequence_closes():
    g = groups.make_dihedral(5)
    gens = iso.generating_sequence(g)
    # greedy cover: a rotation and a reflection suffice
    assert len(gens) == 2
    closure = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = int(g.table[x, s])
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert len(closure) == g.order


def test_generating_sequence_cyclic():
    g = groups.make_cyclic(7)
    assert iso.generating_sequence(g) == [1]


def test_find_embedding_c2_in_d4():
    h = groups.make_cyclic(2)
    g = groups.make_dihedral(4)
    phi = iso.find_embedding(h, g)
    assert phi is not None
    assert phi[0] == 0
    assert g.elt_order[phi[1]] == 2


def test_find_embedding_respects_lagrange():
    h = groups.make_cyclic(3)
    g = groups.make_dihedral(4)
    assert iso.find_embedding(h, g) is None


def test_find_embedding_is_injective_hom():
    h = groups.from_name("C2xC2")
    g = groups.make_alternating(4)
    phi = iso.find_embedding(h, g)
    assert phi is not None
    assert len(set(phi)) == h.order
    for a in range(h.order):
        for b in range(h.order):
            assert phi[h.table[a, b]] == g.table[phi[a], phi[b]]


def test_no_embedding_without_elements_of_a_generator_order():
    # C2^3 has no element of order 4: the generator's pool is empty
    c2_cubed = groups.from_name("C2xC2xC2")
    assert iso.find_embedding(groups.make_cyclic(4), c2_cubed) is None


def test_no_embedding_of_klein_in_cyclic():
    h = groups.from_name("C2xC2")
    g = groups.make_cyclic(8)
    assert iso.find_embedding(h, g) is None


def test_isomorphism_detects_relabeling():
    g = groups.make_cyclic(6)
    h = groups.make_direct_product(groups.make_cyclic(2), groups.make_cyclic(3))
    phi = iso.find_isomorphism(g, h)
    assert phi is not None
    assert sorted(phi) == list(range(6))
    assert iso.are_isomorphic(g, h)


def test_isomorphism_rejects_different_structures():
    assert not iso.are_isomorphic(groups.make_cyclic(4), groups.from_name("C2xC2"))
    assert not iso.are_isomorphic(groups.make_dihedral(4), groups.make_dicyclic(2))
    assert not iso.are_isomorphic(groups.make_cyclic(4), groups.make_cyclic(8))


def test_d3_is_s3():
    assert iso.are_isomorphic(groups.make_dihedral(3), groups.make_symmetric(3))


def test_dic3_embeds_its_center_not_klein():
    g = groups.make_dicyclic(3)
    assert iso.find_embedding(groups.make_cyclic(2), g) is not None
    assert iso.find_embedding(groups.from_name("C2xC2"), g) is None


def test_find_embedding_leaves_no_cyclic_garbage():
    # groups held by nothing else, so that a cycle is all that keeps them
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        s4 = groups.make_symmetric(4)
        assert iso.find_embedding(groups.make_cyclic(3), s4)
        assert iso.find_embedding(groups.make_dicyclic(2), s4) is None
        del s4
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, groups.GroupTable)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
