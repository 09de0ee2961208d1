"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Every criterion sweeps whole families of groups at the exact (or stated
numeric) tolerance. Failures collect per criterion and report together, so
a red line names every offending case up front.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from coset_radon import exactla, flows, geodesics, groups, radon, spectral, verify
from coset_radon.errors import FlowAxiomError
from coset_radon.geodesics import homomorphisms_cn
from coset_radon.groups import left_cosets
from primes import check_primes


def _conclude(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status}")
    assert not failures, f"criterion {num} [{name}]: {failures[:8]}"


def _inj(g, variant="prime") -> bool:
    return radon.is_injective(g, variant=variant).injective


def test_criterion_01_abelian_classification():
    failures = []
    for g in verify.abelian_groups_upto(48):
        want = not groups.is_cyclic(g)
        got = _inj(g)
        if got is not want:
            failures.append((g.recipe, want, got))
    _conclude(1, "abelian classification", failures)


def test_criterion_02_product_rule():
    corpus = [groups.make_cyclic(n) for n in range(2, 13)]
    corpus += [
        groups.make_dihedral(3),
        groups.make_dihedral(4),
        groups.make_dicyclic(2),
        groups.from_name("C2xC2"),
    ]
    failures = []
    for g1, g2 in combinations_with_replacement(corpus, 2):
        if g1.order * g2.order > 64:
            continue
        product = groups.make_direct_product(g1, g2)
        lhs = not _inj(product)
        rhs = (
            not _inj(g1)
            and not _inj(g2)
            and math.gcd(g1.order, g2.order) == 1
        )
        if lhs is not rhs:
            failures.append((product.recipe, lhs, rhs))
    _conclude(2, "product rule", failures)


def test_criterion_03_catalog():
    failures = []
    # degenerate dihedrals: D_1 = C_2 is cyclic, D_2 = C_2 x C_2 is the
    # Klein four-group, noncyclic abelian, hence injective
    for n in range(1, 13):
        want = n >= 2
        if _inj(groups.make_dihedral(n)) is not want:
            failures.append((f"D{n}", want))
    for n in range(2, 6):
        want = n >= 3
        if _inj(groups.make_symmetric(n)) is not want:
            failures.append((f"S{n}", want))
    for n in range(2, 7):
        want = n >= 4
        g = groups.make_alternating(n)
        if g.order == 1:
            got = False  # no geodesics at all: nothing to invert with
        else:
            got = _inj(g)
        if got is not want:
            failures.append((f"A{n}", want))
    for n in range(2, 9):
        if _inj(groups.make_dicyclic(n)):
            failures.append((f"Dic{n}", False))
    _conclude(3, "catalog of families", failures)


def test_criterion_04_dimension_bound():
    failures = []
    for n in range(2, 15):
        chk = radon.dimension_bound_check(groups.make_dicyclic(n))
        if not (chk.bound_holds and chk.lhs < chk.rhs):
            failures.append((f"Dic{n}", "expected strict bound"))
    eq = radon.dimension_bound_check(groups.make_dicyclic(15))
    if not (eq.lhs == eq.rhs and not eq.bound_holds):
        failures.append(("Dic15", "expected equality", str(eq.lhs), str(eq.rhs)))
    rev = radon.dimension_bound_check(groups.make_dicyclic(30))
    if not (rev.lhs > rev.rhs and not rev.bound_holds):
        failures.append(("Dic30", "expected reversed inequality"))
    _conclude(4, "dimension bound on dicyclic groups", failures)


def test_criterion_05_maximal_variant():
    failures = []
    for p in (2, 3, 5):
        g = groups.make_direct_product(groups.make_cyclic(p), groups.make_cyclic(p))
        if not _inj(g, "maximal"):
            failures.append((g.recipe, "expected maximal-injective"))
    for n in range(2, 31):
        g = groups.make_cyclic(n)
        sys = radon.build_system(g, "maximal")
        ker = radon.kernel(sys)
        if ker.dim != n - 1:
            failures.append((g.recipe, "kernel dim", ker.dim, n - 1))
            continue
        if any(sum(vec) != 0 for vec in ker.vectors):
            failures.append((g.recipe, "kernel not zero-average"))
    c66 = radon.is_injective(groups.from_name("C6xC6"), variant="maximal")
    if c66.rank != 36:
        failures.append(("C6xC6", "maximal rank", c66.rank))
    report = verify.run_suite("maximal", max_order=48)
    failures.extend(
        (c.group, c.expected, c.computed) for c in report.cases if not c.passed
    )
    _conclude(5, "maximal variant", failures)


def test_criterion_06_reconstruction():
    failures = []
    for p in (2, 3, 5):
        g = groups.make_direct_product(groups.make_cyclic(p), groups.make_cyclic(p))
        sys = radon.build_system(g, "prime")
        for i, f in enumerate(verify.random_rational_functions(p * p, 100, seed=600 + p)):
            values = radon.apply(sys, f)
            back = radon.reconstruct_all(sys, values)
            if list(back) != f:
                failures.append((g.recipe, i))
    _conclude(6, "exact reconstruction on prime squares", failures)


def test_criterion_07_kernel_witnesses():
    failures = []
    for n in range(2, 37):
        g = groups.make_cyclic(n)
        w = radon.kernel_witness_cyclic(g)
        image = radon.apply(radon.build_system(g, "prime"), w)
        if not any(w) or any(image):
            failures.append((g.recipe, "cyclic witness"))
    q8 = groups.make_dicyclic(2)
    q8_witness = radon.kernel(radon.build_system(q8, "prime")).vectors[0]
    pairs = [
        (groups.make_cyclic(4), groups.make_cyclic(3),
         radon.kernel_witness_cyclic(groups.make_cyclic(4))),
        (q8, groups.make_cyclic(3), q8_witness),
        (groups.make_cyclic(9), groups.make_cyclic(4),
         radon.kernel_witness_cyclic(groups.make_cyclic(9))),
    ]
    for g1, g2, w1 in pairs:
        w2 = radon.kernel_witness_cyclic(g2)
        witness, product = radon.kernel_witness_product(w1, w2, g1, g2)
        image = radon.apply(radon.build_system(product, "prime"), witness)
        if not any(witness) or any(image):
            failures.append((product.recipe, "product witness"))
    _conclude(7, "kernel witnesses", failures)


def test_criterion_08_spectral_cross_check():
    failures = []
    for g in verify.abelian_groups_upto(64):
        kdim = radon.is_injective(g).kernel_dim
        faithful = len(spectral.faithful_characters(spectral.characters(g)))
        if kdim != faithful:
            failures.append((g.recipe, kdim, faithful))
    q8 = groups.make_dicyclic(2)
    verdict = radon.is_injective(q8)
    if verdict.kernel_dim != 4:
        failures.append(("Q8", "kernel dim", verdict.kernel_dim))
    rep = spectral.quaternion_rep_set(q8)[-1]
    sys = radon.build_system(q8, "prime")
    # the real and imaginary parts of the coefficient vectors, as integers
    re, im = spectral.matrix_coefficient_vectors(q8, rep)
    rows = [*re.tolist(), *im.tolist()]
    for row in rows:
        if any(bool(v) for v in radon.apply(sys, row)):
            failures.append(("Q8", "matrix coefficient not annihilated"))
    if exactla.rank_exact(rows, 8) != 4:
        failures.append(("Q8", "coefficients do not span the kernel"))
    _conclude(8, "spectral kernel cross-check", failures)


def test_criterion_09_fourier_identities():
    failures = []
    names = ("C6", "C2xC2", "C2xC4", "C3xC3")
    for name in names:
        g = groups.from_name(name)
        ct = spectral.characters(g)
        if not spectral.char_sum_check_characters(ct):
            failures.append((name, "character completeness"))
        for i, f in enumerate(verify.random_rational_functions(g.order, 50, seed=900)):
            if not spectral.fourier_radon_check(g, f, tolerance=1e-9, ct=ct):
                failures.append((name, "fourier", i))
            if spectral.plancherel_defect(ct, f) > 1e-9:
                failures.append((name, "plancherel", i))
    q8 = groups.make_dicyclic(2)
    reps = spectral.quaternion_rep_set(q8)
    if not spectral.char_sum_check(q8, reps):
        failures.append(("Q8", "rep completeness"))
    for rep in reps:
        for p in exactla.prime_divisors(q8.order):
            for hom in homomorphisms_cn(q8, p):
                if not spectral.check_projection(q8, rep, hom):
                    failures.append(("Q8", "projection", rep.dim, hom.image_generator))
    _conclude(9, "fourier and projection identities", failures)


def test_criterion_10_composite_consistency():
    failures = []
    composites = [n for n in range(4, 13) if not exactla.is_prime(n)]
    for g in verify.groups_upto(24):
        for n in composites:
            if not radon.composite_consistency(g, n):
                failures.append((g.recipe, n))
    _conclude(10, "composite-length consistency", failures)


def test_criterion_11_flows():
    failures = []
    if exactla.rank_exact(
        flows.flow_radon_system(flows.constant_flow(2)).matrix, 2
    ) == 2:
        failures.append(("constant:2", "expected noninjective"))
    for m in range(3, 17):
        sys = flows.flow_radon_system(flows.constant_flow(m))
        if exactla.rank_exact(sys.matrix, m) != m:
            failures.append((f"constant:{m}", "expected injective"))
    for g in verify.groups_upto(24):
        flow = flows.group_flow(g)
        expected = {(x,) for x in range(g.order)}
        for sub in geodesics.cyclic_subgroups(g):
            for coset in left_cosets(g, sub):
                expected.add(coset)
        seen = {o.projection() for o in flows.flow_orbits(flow)}
        if seen != expected:
            failures.append((g.recipe, "orbit projections"))
    try:
        flows.validate_flow(3, [[1, 1, 2], [1, 1, 2], [2, 1, 2]])
        failures.append(("fixed-diagonal", "not raised"))
    except FlowAxiomError as exc:
        if exc.axiom != "fixed-diagonal" or exc.witness != (0, 1):
            failures.append(("fixed-diagonal", exc.axiom, exc.witness))
    try:
        flows.validate_flow(3, [[0, 1, 2], [1, 1, 2], [2, 1, 2]])
        failures.append(("avoids-target", "not raised"))
    except FlowAxiomError as exc:
        if exc.axiom not in ("avoids-target", "reflection"):
            failures.append(("avoids-target", exc.axiom))
    _conclude(11, "successor flows", failures)


def test_criterion_12_oracle_agreement():
    failures = []
    for g in verify.groups_upto(24):
        for variant in ("prime", "maximal"):
            sys = radon.build_system(g, variant)
            exact = exactla.rank_exact(sys.matrix, sys.ncols)
            for p in check_primes(sys.ncols, count=3):
                modular = exactla.rank_mod(sys.matrix, sys.ncols, p)
                if modular != exact:
                    failures.append((g.recipe, variant, p, exact, modular))
    _conclude(12, "exact/modular rank agreement", failures)
