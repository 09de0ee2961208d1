"""When the transform is injective, what does inversion look like?

On C_p x C_p there is a one-line formula; everywhere else this demo shows
what the prime coset sums fix without any solving: the total mass, and the
sums along orbits of every composite length.
"""

import random
from fractions import Fraction

from coset_radon import groups, radon

# --- closed-form inversion on C_p x C_p -----------------------------------------
# Each of the p+1 cyclic directions contributes one coset through a point
# x. Summing those p+1 values counts f(x) with multiplicity p+1 and every
# other point exactly once, so subtracting the total mass and dividing by
# p recovers f(x). No elimination, no tolerance.

rng = random.Random(41)
for p in (2, 3, 5):
    g = groups.make_direct_product(groups.make_cyclic(p), groups.make_cyclic(p))
    sys = radon.build_system(g, "prime")
    f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(p * p))
    values = radon.apply(sys, f)
    back = radon.reconstruct_all(sys, values)
    assert back == f
    print(f"C{p} x C{p}: {len(values)} sums invert {p * p} unknowns exactly")

# --- total mass from sums alone ---------------------------------------------------
# The cosets of any single subgroup partition the group, so the transform
# always reveals the total mass, injective or not.

g = groups.make_dicyclic(3)
sys = radon.build_system(g, "prime")
f = [Fraction(rng.randint(-5, 5)) for _ in range(g.order)]
print(f"\nDic3 total mass: {radon.group_sum_from_radon(sys, radon.apply(sys, f))}"
      f" (direct sum {sum(f)})")

# --- composite lengths carry nothing new --------------------------------------------
# A length-n orbit, n composite, sweeps a coset of a cyclic subgroup whose
# order divides n, some number of times. The centre decides whether the
# prime sums already fix every such coset sum: the central element of both
# families together has the nullity of the prime family's alone. That is
# proven for every function at once, not checked on random ones, and it is
# why the prime system is enough.

g = groups.make_cyclic(12)
for n in (4, 6, 12):
    ok = radon.composite_consistency(g, n)
    print(f"C12, length {n:2d}: reduces to prime data = {ok}")
