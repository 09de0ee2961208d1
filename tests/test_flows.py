import numpy as np
import pytest

from coset_radon import flows, groups, radon, verify
from coset_radon.errors import FlowAxiomError, InvalidOrderError, SizeLimitError
from coset_radon.exactla import rank_exact, rational_nullspace
from coset_radon.geodesics import cyclic_subgroups
from coset_radon.groups import cyclic_subgroup, left_cosets


def test_validate_flow_accepts_group_rule():
    g = groups.make_dihedral(3)
    flow = flows.group_flow(g)
    assert flow.size == 6
    assert flow.label == "group:D3"


def test_validate_flow_shape_and_range():
    with pytest.raises(FlowAxiomError) as exc:
        flows.validate_flow(3, [[0, 1], [1, 0]])
    assert exc.value.axiom == "shape"
    with pytest.raises(FlowAxiomError) as exc:
        flows.validate_flow(2, [[0, 7], [1, 1]])
    assert exc.value.axiom == "range"


def test_validate_flow_axiom_witnesses():
    bad_fixed = [[1, 1, 2], [1, 1, 2], [2, 1, 2]]
    with pytest.raises(FlowAxiomError) as exc:
        flows.validate_flow(3, bad_fixed)
    assert exc.value.axiom == "fixed-diagonal"
    assert exc.value.witness == (0, 1)

    # s(0, 1) = 1 lands on the target point
    bad_target = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]
    with pytest.raises(FlowAxiomError) as exc:
        flows.validate_flow(3, bad_target)
    assert exc.value.axiom in ("avoids-target", "reflection")

    # reflection broken: s(s(0,1),1) = s(2,1) = 0 required, table says 1 -> fix s(0,1)=2, s(2,1)=2
    bad_mirror = [[0, 2, 1], [1, 1, 0], [2, 2, 2]]
    with pytest.raises(FlowAxiomError) as exc:
        flows.validate_flow(3, bad_mirror)
    assert exc.value.axiom == "reflection"


def test_invalid_sizes():
    with pytest.raises(InvalidOrderError):
        flows.validate_flow(0, [])
    # constant_flow refuses what validate_flow refuses, without its walk
    for size in (0, True, np.int64(3), 2.0, "3"):
        with pytest.raises(InvalidOrderError):
            flows.constant_flow(size)


def test_flows_refuse_sizes_above_the_order_cap(monkeypatch):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "6")
    with pytest.raises(SizeLimitError):
        flows.constant_flow(7)
    # every cell is out of range, so a walk of the table would raise
    # FlowAxiomError; the cap is checked first
    with pytest.raises(SizeLimitError):
        flows.validate_flow(7, [[99] * 7] * 7)
    assert flows.constant_flow(6).size == 6


def test_constant_flow_orbits():
    flow = flows.constant_flow(3)
    orbits = flows.flow_orbits(flow)
    # diagonal pairs are fixed; off-diagonal pairs (a,b) cycle a,b,a,b
    periods = sorted(o.period for o in orbits)
    assert periods == [1, 1, 1, 2, 2, 2]
    for o in orbits:
        if not o.stationary:
            assert len(o.projection()) == 2


def test_orbit_states_partition_pair_space():
    g = groups.make_dicyclic(2)
    flow = flows.group_flow(g)
    orbits = flows.flow_orbits(flow)
    all_states = [s for o in orbits for s in o.states]
    assert len(all_states) == flow.size**2
    assert len(set(all_states)) == flow.size**2


def test_orbit_anchoring_and_order():
    flow = flows.group_flow(groups.make_cyclic(5))
    orbits = flows.flow_orbits(flow)
    for o in orbits:
        assert o.states[0] == min(o.states)
    anchors = [o.states[0] for o in orbits]
    assert anchors == sorted(anchors)


def test_group_flow_orbits_are_cosets():
    # orbit through (a, b) covers the coset a<a^-1 b>, one visit per point
    for name in ("C6", "D4", "Dic3"):
        g = groups.from_name(name)
        flow = flows.group_flow(g)
        expected = set()
        for sub in cyclic_subgroups(g):
            for coset in left_cosets(g, sub):
                expected.add(coset)
        for x in range(g.order):
            expected.add((x,))
        seen = {o.projection() for o in flows.flow_orbits(flow)}
        assert seen == expected, name


def test_group_flow_period_is_generator_order():
    g = groups.make_cyclic(12)
    flow = flows.group_flow(g)
    for o in flows.flow_orbits(flow):
        a, b = o.states[0]
        step = g.table[g.inv[a], b]
        assert o.period == g.elt_order[step]
        # each point of the projection is visited exactly once
        assert len(o.projection()) == o.period


def test_group_flow_reversal_closure():
    # swapping every pair of an orbit yields the states of another orbit
    g = groups.make_dihedral(4)
    flow = flows.group_flow(g)
    orbit_state_sets = [frozenset(o.states) for o in flows.flow_orbits(flow)]
    for states in orbit_state_sets:
        swapped = frozenset((b, a) for a, b in states)
        assert swapped in orbit_state_sets


def test_flow_system_dedups_rows():
    g = groups.make_cyclic(6)
    sys = flows.flow_radon_system(flows.group_flow(g))
    assert sys.variant == "flow"
    assert sys.group is None
    assert len(set(sys.matrix)) == len(sys.matrix)
    # multiplicity-one rows over the cosets of <1>, <2>, <3>: 1 + 2 + 3
    geodesic_rows = {
        tuple(1 if x in coset else 0 for x in range(6))
        for sub in cyclic_subgroups(g)
        for coset in left_cosets(g, sub)
    }
    assert set(sys.matrix) == geodesic_rows


def test_flow_system_excludes_stationary_orbits():
    sys = flows.flow_radon_system(flows.constant_flow(4))
    for row in sys.matrix:
        assert sum(row) > 1


def test_flow_system_size_floor():
    with pytest.raises(InvalidOrderError):
        flows.flow_radon_system(flows.constant_flow(1))


def test_constant_flow_injectivity_threshold():
    # pair sums f(a)+f(b) pin down f exactly when three points exist
    assert rank_exact(flows.flow_radon_system(flows.constant_flow(2)).matrix, 2) == 1
    for m in range(3, 10):
        sys = flows.flow_radon_system(flows.constant_flow(m))
        assert rank_exact(sys.matrix, m) == m, m


def test_group_flow_system_matches_all_cyclic_rank():
    # the flow sees every cyclic subgroup, not just the prime ones
    g = groups.make_cyclic(6)
    sys = flows.flow_radon_system(flows.group_flow(g))
    assert rank_exact(sys.matrix, 6) == 4
    kernel = rational_nullspace(sys.matrix, 6)
    prime_kernel = radon.kernel(radon.build_system(g, "prime"))
    assert tuple(kernel) == prime_kernel.vectors


def test_group_flow_on_klein_group_is_injective():
    g = groups.from_name("C2xC2")
    sys = flows.flow_radon_system(flows.group_flow(g))
    assert rank_exact(sys.matrix, 4) == 4


def test_parity_obstruction_for_odd_orders():
    # a group rule can only produce the constant flow when every element
    # squares to the identity; odd-order groups never do
    for n in (3, 5, 7, 9, 15):
        g = groups.make_cyclic(n)
        flow = flows.group_flow(g)
        constant = flows.constant_flow(n)
        assert flow.table != constant.table
        assert any(g.elt_order[x] > 2 for x in range(n) if x)


def test_group_flow_equals_constant_flow_on_involutive_groups():
    for name in ("C2", "C2xC2", "C2xC2xC2"):
        g = groups.from_name(name)
        assert flows.group_flow(g).table == flows.constant_flow(g.order).table, name


def _relabelled(g, seed):
    """g rebuilt from its table with every id renamed, the identity's too."""
    perm = np.random.default_rng(seed).permutation(g.order)
    out = np.empty((g.order, g.order), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[g.table]
    return groups.from_cayley_table(out)


def test_builtin_flows_pass_the_axiom_walk():
    # group_flow and constant_flow skip validate_flow, on the proof in their
    # docstrings; the walk still accepts each of them with an equal table
    corpus = verify.groups_upto(24) + [
        groups.make_symmetric(5), _relabelled(groups.make_symmetric(4), 5)
    ]
    built = [flows.group_flow(g) for g in corpus]
    built += [flows.constant_flow(m) for m in range(1, 41)]
    for flow in built:
        again = flows.validate_flow(flow.size, flow.table, flow.label)
        assert again == flow, flow.label
        assert all(type(v) is int for row in flow.table for v in row)
    assert built[-1].table == tuple((a,) * 40 for a in range(40))


def test_axiom_witness_case_fails_when_the_walk_accepts(monkeypatch):
    assert verify._axiom_witness_case().passed
    monkeypatch.setattr(flows, "validate_flow", lambda size, table, label="flow": None)
    case = verify._axiom_witness_case()
    assert not case.passed
    assert case.computed == "got ['accepted', 'accepted']"
