"""Successor flows: coset geometry without the group.

Three axioms on a successor rule s(a, b) are enough to make pair space
break into cycles that behave like geodesics. Groups provide one family of
flows; the constant rule provides another with no group in sight.
"""

from coset_radon import flows, groups, radon
from coset_radon.errors import FlowAxiomError
from coset_radon.geodesics import cyclic_subgroups
from coset_radon.groups import left_cosets

# --- axioms with witnesses -----------------------------------------------------

try:
    flows.validate_flow(3, [[1, 1, 2], [1, 1, 2], [2, 1, 2]])
except FlowAxiomError as exc:
    print(f"rejected: axiom {exc.axiom!r}, witness {exc.witness}")

# --- the group rule reproduces cosets --------------------------------------------
# s(a, b) = b a^{-1} b walks the coset a<a^{-1}b>, one visit per point, with
# period equal to the order of a^{-1}b.

g = groups.make_dihedral(4)
flow = flows.group_flow(g)
projections = {o.projection() for o in flows.flow_orbits(flow)}
cosets = {c for s in cyclic_subgroups(g) for c in left_cosets(g, s)}
singletons = {(x,) for x in range(g.order)}
assert projections == cosets | singletons
print(f"D4 orbit projections = cyclic-subgroup cosets: confirmed "
      f"({len(cosets)} cosets)")

# --- the flow system sees every cyclic subgroup -----------------------------------
# The group flow generates cosets of ALL cyclic subgroups, not only the
# prime-order ones, yet the rank agrees with the prime system: composite
# rows are dependent, exactly as the reduction lemma promises.

for name in ("C6", "C12", "D4"):
    h = groups.from_name(name)
    fsys = flows.flow_radon_system(flows.group_flow(h))
    frank = radon.decide_system(fsys)[0]
    prank = radon.is_injective(h).rank
    print(f"{name:4s} flow rank {frank:2d}  prime rank {prank:2d}")

# --- a flow with no group ----------------------------------------------------------
# The constant rule s(a, b) = a is a valid flow on any set. Its orbits are
# unordered pairs, so the transform reads off f(a) + f(b); three points
# make those sums independent, two do not.

for m in (2, 3, 6, 10):
    sys = flows.flow_radon_system(flows.constant_flow(m))
    rank = radon.decide_system(sys)[0]
    print(f"constant flow on {m:2d} points: rank {rank}/{m} "
          f"{'injective' if rank == m else 'noninjective'}")

# a group can only produce the constant flow if every element is its own
# inverse: b a^{-1} b = a for all a, b forces exponent 2
klein = groups.from_name("C2xC2")
assert flows.group_flow(klein).table == flows.constant_flow(4).table
print("\nC2xC2 group flow IS the constant flow on 4 points")
print(f"and it is injective: "
      f"{radon.decide_system(flows.flow_radon_system(flows.group_flow(klein)))[0] == 4}")
