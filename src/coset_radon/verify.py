"""Executable regression suites for the theory the library implements.

Each suite checks one theorem or family of facts across a swept corpus of
groups and reports per-case verdicts. All injectivity checks inside suites
are exact; floating arithmetic appears only in the Fourier identities with
an explicit tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd

import numpy as np

from . import flows, geodesics, iso, radon, spectral
from .errors import FlowAxiomError, GroupSpecError, InvalidOrderError
from .errors import NoGeodesicsError, SizeLimitError
from .exactla import factorize, is_prime, rank_exact
from .groups import (
    GroupTable,
    from_name,
    is_cyclic,
    invariant_factors,
    left_cosets,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_direct_product,
    make_symmetric,
    max_group_order,
    quotient_with_projection,
)

__all__ = [
    "SUITES",
    "SuiteCase",
    "SuiteReport",
    "abelian_groups_upto",
    "groups_upto",
    "random_rational_functions",
    "run_suite",
    "suite_abelian",
    "suite_bound",
    "suite_catalog",
    "suite_flows",
    "suite_lemma_prime",
    "suite_maximal",
    "suite_products",
    "suite_spectral_abelian",
    "suite_subgroup_monotone",
]


@dataclass(frozen=True)
class SuiteCase:
    group: str
    expected: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: tuple[SuiteCase, ...]

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _case(group: str, expected: str, ok: bool, detail: str) -> SuiteCase:
    """A case that passes by repeating its expectation; detail is what it
    reports instead when ok fails."""
    return SuiteCase(group, expected, expected if ok else detail)


def _report(name: str, cases: list[SuiteCase]) -> SuiteReport:
    # canonical order regardless of generation schedule
    ordered = tuple(sorted(cases, key=lambda c: (c.group, c.expected)))
    return SuiteReport(suite=name, cases=ordered)


# ---------------------------------------------------------------------------
# corpora


def _partitions(e: int, top: int):
    """The partitions of e into parts of at most top, each largest part
    first, in reverse lexicographic order: a largest part k, then the
    partitions of e - k into parts of at most k."""
    if e == 0:
        yield []
    for k in range(min(e, top), 0, -1):
        for rest in _partitions(e - k, k):
            yield [k, *rest]


def _prime_power_splits(p: int, e: int) -> list[list[int]]:
    """All multisets of p-power orders with exponents summing to e, each
    largest first, in reverse lexicographic order of the exponents."""
    return [[p**k for k in parts] for parts in _partitions(e, e)]


def abelian_groups_upto(max_order: int) -> list[GroupTable]:
    """One group per isomorphism class of abelian groups, orders 2..max.

    The class with sorted prime-power factors f1 <= ... <= fk is the
    left-associated product ((C_f1 x C_f2) x ...) x C_fk. Its prefix
    f1..f(k-1) is the factor list of a class of smaller order, and C_fk is
    one too, so each class is one product of two groups built before it:
    one build per class. A bound above the order cap is refused before any
    group is built.
    """
    cap = max_group_order()
    if max_order > cap:
        raise SizeLimitError(f"max order {max_order} is above the cap of {cap}")
    out = []
    built: dict[tuple[int, ...], GroupTable] = {}
    for n in range(2, max_order + 1):
        per_prime = [_prime_power_splits(p, e) for p, e in factorize(n)]
        for splits in product(*per_prime):
            factors = tuple(sorted(chain.from_iterable(splits)))
            if len(factors) == 1:
                g = make_cyclic(factors[0])
            else:
                g = make_direct_product(built[factors[:-1]], built[factors[-1:]])
            built[factors] = g
            out.append(g)
    return out


def groups_upto(max_order: int) -> list[GroupTable]:
    """A constructible corpus: all abelian classes plus the named families."""
    out = list(abelian_groups_upto(max_order))
    for n in range(3, max_order // 2 + 1):
        out.append(make_dihedral(n))
    for n in range(2, max_order // 4 + 1):
        out.append(make_dicyclic(n))
    if max_order >= 12:
        out.append(make_alternating(4))
    if max_order >= 24:
        out.append(make_symmetric(4))
    return [g for g in out if g.order <= max_order]


def random_rational_functions(n: int, count: int, seed: int) -> list[list[Fraction]]:
    """count lists of n values a/b, a drawn from -9..9 and then b from
    1..7 by random.Random(seed)."""
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        for _ in range(count)
    ]


def _inj(g: GroupTable, variant: str = "prime") -> bool:
    return radon.is_injective(g, variant=variant).injective


# ---------------------------------------------------------------------------
# suites


def suite_abelian(max_order: int = 48) -> SuiteReport:
    """Injective iff noncyclic iff some prime appears in two invariant
    factors, across every abelian isomorphism class in range."""
    cases = []
    for g in abelian_groups_upto(max_order):
        inj = _inj(g)
        cyclic = is_cyclic(g)
        # p | d_{k-1} and p | d_k for p | d_{k-1}
        has_square = len(invariant_factors(g)) >= 2
        cases.append(_case(
            g.recipe, "injective iff noncyclic iff contains-square",
            inj == (not cyclic) == has_square,
            f"injective={inj} cyclic={cyclic} square={has_square}",
        ))
    return _report("abelian", cases)


def _product_corpus() -> list[GroupTable]:
    out = [make_cyclic(n) for n in range(2, 13)]
    out.append(make_dihedral(3))
    out.append(make_dihedral(4))
    out.append(make_dicyclic(2))
    out.append(make_direct_product(make_cyclic(2), make_cyclic(2)))
    return out


def suite_products(max_order: int = 64) -> SuiteReport:
    """Noninjective on G1 x G2 iff noninjective on both and coprime orders."""
    corpus = _product_corpus()
    verdicts = {g.recipe: _inj(g) for g in corpus}
    cases = []
    for i, g1 in enumerate(corpus):
        for g2 in corpus[i:]:
            if g1.order * g2.order > max_order:
                continue
            prod = make_direct_product(g1, g2)
            noninj_prod = not _inj(prod)
            predicted = (
                (not verdicts[g1.recipe])
                and (not verdicts[g2.recipe])
                and gcd(g1.order, g2.order) == 1
            )
            cases.append(_case(
                prod.recipe, "product rule holds", noninj_prod == predicted,
                f"noninjective={noninj_prod} predicted={predicted}",
            ))
    return _report("products", cases)


def suite_catalog() -> SuiteReport:
    """Named-family verdicts.

    Dihedral: D_1 is C_2 (noninjective) and D_2 is the Klein four-group,
    which is noncyclic abelian and therefore injective; D_n for n >= 3 is
    injective. Symmetric: injective iff n >= 3. Alternating: injective iff
    n >= 4, with the one-element A_2 counted noninjective by convention.
    Dicyclic: never injective.
    """
    cases = []
    for n in range(1, 13):
        expected = n >= 2  # Klein four-group at n = 2 included
        cases.append(_verdict_case(make_dihedral(n), expected))
    for n in range(2, 6):
        cases.append(_verdict_case(make_symmetric(n), n >= 3))
    for n in range(2, 7):
        g = make_alternating(n)
        if g.order == 1:
            try:
                radon.is_injective(g)
                computed = "verdict on trivial group"
            except NoGeodesicsError:
                computed = "noninjective"
            cases.append(
                SuiteCase(group=g.recipe, expected="noninjective", computed=computed)
            )
            continue
        cases.append(_verdict_case(g, n >= 4))
    for n in range(2, 9):
        cases.append(_verdict_case(make_dicyclic(n), False))
    return _report("catalog", cases)


def _verdict_case(g: GroupTable, expect_injective: bool) -> SuiteCase:
    inj = _inj(g)
    word = {True: "injective", False: "noninjective"}
    return SuiteCase(
        group=g.recipe, expected=word[expect_injective], computed=word[inj]
    )


def suite_bound() -> SuiteReport:
    """Counting bound on dicyclic groups: strict through Dic_14, equality at
    Dic_15, reversed at Dic_30; all of them noninjective regardless."""
    cases = []
    for n in list(range(2, 16)) + [30]:
        g = make_dicyclic(n)
        chk = radon.dimension_bound_check(g)
        if chk.lhs < chk.rhs:
            relation = "bound-strict"
        elif chk.lhs == chk.rhs:
            relation = "bound-equality"
        else:
            relation = "bound-reversed"
        if n <= 14:
            want = "bound-strict"
        elif n == 15:
            want = "bound-equality"
        else:
            want = "bound-reversed"
        inj = _inj(g)
        cases.append(
            SuiteCase(
                group=g.recipe,
                expected=f"{want} noninjective",
                computed=f"{relation} {'injective' if inj else 'noninjective'}",
            )
        )
    return _report("bound", cases)


def suite_lemma_prime(max_order: int = 24) -> SuiteReport:
    """Composite lengths add nothing: on every corpus group and composite
    n <= 12, the prime coset sums of any f fix its length-n ones, by
    radon.composite_consistency's proof, one nullity of z_p per group."""
    cases = []
    composites = [n for n in range(4, 13) if not is_prime(n)]
    for g in groups_upto(max_order):
        for n, ok in zip(composites, radon._composites_consistent(g, composites)):
            cases.append(_case(f"{g.recipe} len={n}", "consistent", ok, "inconsistent"))
    return _report("lemma-prime", cases)


_MONOTONE_PAIRS: tuple[tuple[str, str], ...] = (
    ("C2xC2", "D4"),
    ("C2xC2", "A4"),
    ("C2xC2", "C2xC4"),
    ("C2xC2", "C2xC2xC2"),
    ("D3", "D6"),
    ("D3", "D12"),
    ("D3", "S4"),
    ("D4", "D8"),
    ("A4", "A5"),
    ("S4", "S5"),
    ("C3xC3", "C3xC6"),
    ("C2", "D4"),
    ("C3", "D3"),
    ("C4", "D4"),
    ("C6", "D6"),
)


def suite_subgroup_monotone() -> SuiteReport:
    """Injective on a subgroup implies injective on the whole group.

    Each pair is first certified by an explicit embedding search; cyclic
    subgroups of injective groups are included to witness that the converse
    direction is not claimed.
    """
    cases = []
    expected = "embedding found, monotone"
    for h_name, g_name in _MONOTONE_PAIRS:
        pair = f"{h_name} <= {g_name}"
        h = from_name(h_name)
        g = from_name(g_name)
        if iso.find_embedding(h, g) is None:
            cases.append(_case(pair, expected, False, "no embedding"))
            continue
        inj_h = _inj(h)
        inj_g = _inj(g)
        cases.append(_case(
            pair, expected, (not inj_h) or inj_g,
            f"subgroup injective={inj_h} group injective={inj_g}",
        ))
    return _report("subgroup-monotone", cases)


def suite_spectral_abelian(max_order: int = 64) -> SuiteReport:
    """Kernel dimension equals the faithful-character count on every abelian
    class in range; the quaternion group's kernel is spanned by the matrix
    coefficients of its 2-dim representation."""
    cases = []
    for g in abelian_groups_upto(max_order):
        verdict = radon.is_injective(g)
        count = len(spectral.faithful_characters(spectral.characters(g)))
        cases.append(_case(
            g.recipe, "kernel dim = faithful count", verdict.kernel_dim == count,
            f"kernel={verdict.kernel_dim} faithful={count}",
        ))
    cases.append(_quaternion_span_case())
    return _report("spectral-abelian", cases)


def _quaternion_span_case() -> SuiteCase:
    g = make_dicyclic(2)
    sys = radon.build_system(g, "prime")
    dim = radon.decide_system(sys)[1]
    two = next(r for r in spectral.quaternion_rep_set(g) if r.dim == 2)
    # the real and imaginary parts of each coefficient vector, scaled to integers
    re, im = spectral.matrix_coefficient_vectors(g, two)
    parts = [*re.tolist(), *im.tolist()]
    expected = "coefficients span kernel"
    if any(any(radon.apply(sys, part)) for part in parts):
        return _case(g.recipe, expected, False, "coefficient vector not annihilated")
    rank = rank_exact(parts, g.order)
    return _case(
        g.recipe, expected, dim == 4 and rank == 4, f"kernel={dim} span={rank}"
    )


def _zero_average_cyclic_case(n: int) -> SuiteCase:
    """The maximal kernel of C_n is the n - 1 functions of sum 0. Each
    vector's sum is read off its codes: the count of each code times the
    distinct value it stands for."""
    g = make_cyclic(n)
    kb = radon.kernel(radon.build_system(g, "maximal"))
    k = len(kb.values)
    counts = np.bincount(
        (kb.codes + k * np.arange(kb.dim)[:, None]).ravel(), minlength=kb.dim * k
    )
    zero_avg = all(
        sum(c * v for c, v in zip(row, kb.values) if c) == 0
        for row in counts.reshape(kb.dim, k).tolist()
    )
    return _case(
        g.recipe, "kernel = zero-average functions",
        kb.dim == n - 1 and zero_avg,
        f"dim={kb.dim} zero_avg={zero_avg}",
    )


def suite_maximal(max_order: int = 48) -> SuiteReport:
    """The maximal variant: squares of primes stay injective, cyclic groups
    collapse to total-sum data, C_6 x C_6 is full rank, a coprime cyclic
    factor kills injectivity, and quotients by short subgroups of C_6 x C_6
    keep the plain transform injective."""
    cases = []
    for p in (2, 3, 5):
        g = make_direct_product(make_cyclic(p), make_cyclic(p))
        inj = _inj(g, "maximal")
        cases.append(_case(f"{g.recipe} maximal", "injective", inj, "noninjective"))
    for n in range(2, 31):
        cases.append(_zero_average_cyclic_case(n))
    c66 = make_direct_product(make_cyclic(6), make_cyclic(6))
    v66 = radon.is_injective(c66, "maximal")
    cases.append(
        SuiteCase(
            group="C6xC6 maximal",
            expected="rank 36 of 72 rows",
            computed=f"rank {v66.rank} of {v66.rows} rows",
        )
    )
    cases.extend(_coprime_factor_cases(max_order))
    cases.extend(_quotient_cases())
    return _report("maximal", cases)


_COPRIME_FACTOR_CASES: tuple[tuple[int, str], ...] = (
    (2, "C3"),
    (2, "C9"),
    (2, "C3xC3"),
    (3, "C4"),
    (3, "D4"),
    (3, "Dic2"),
    (4, "C3xC3"),
    (5, "D3"),
    (5, "Dic2"),
    (7, "C2xC2"),
    (9, "C4"),
    (3, "C2xC2xC2"),
)


def _coprime_factor_cases(max_order: int) -> list[SuiteCase]:
    """C_m x G2 with coprime orders: every maximal cyclic subgroup projects
    onto the full first factor, and the lifted zero-average function is an
    explicit kernel witness for the maximal transform."""
    out = []
    for m, g2_name in _COPRIME_FACTOR_CASES:
        g2 = from_name(g2_name)
        if m * g2.order > max_order or gcd(m, g2.order) != 1:
            continue
        prod = make_direct_product(make_cyclic(m), g2)
        surjective = all(
            {x // g2.order for x in sub.elements} == set(range(m))
            for sub in geodesics.maximal_cyclic_subgroups(prod)
        )
        f = [Fraction(0)] * prod.order
        for x in range(prod.order):
            first = x // g2.order
            if first == 0:
                f[x] = Fraction(1)
            elif first == 1:
                f[x] = Fraction(-1)
        sysm = radon.build_system(prod, "maximal")
        annihilated = not any(radon.apply(sysm, f))
        noninj = radon.decide_system(sysm)[1] > 0
        out.append(_case(
            f"{prod.recipe} maximal", "coprime factor kills injectivity",
            surjective and annihilated and noninj,
            f"surjective={surjective} annihilated={annihilated} noninjective={noninj}",
        ))
    return out


def _quotient_cases() -> list[SuiteCase]:
    """On C_6 x C_6 (maximal transform injective) every subgroup of order 2
    or 3 is too short to be a maximal cyclic subgroup, so the plain
    transform on the quotient must be injective."""
    g = make_direct_product(make_cyclic(6), make_cyclic(6))
    maximal_sets = {s.elements for s in geodesics.maximal_cyclic_subgroups(g)}
    out = []
    for sub in geodesics.cyclic_subgroups(g):
        if len(sub) not in (2, 3):
            continue
        premise = sub.elements not in maximal_sets
        q, _ = quotient_with_projection(g, sub)
        inj_q = _inj(q)
        out.append(_case(
            f"C6xC6/<{sub.generator}> order {q.order}",
            "quotient transform injective",
            premise and inj_q, f"premise={premise} injective={inj_q}",
        ))
    return out


def suite_flows(max_order: int = 24) -> SuiteReport:
    """Successor-flow facts: constant-flow injectivity threshold, group-flow
    orbits tracing coset geometry, axiom witnesses, reversal closure, and
    the parity obstruction for realizing the constant flow on a group."""
    cases = []
    for m in range(2, 17):
        sysf = flows.flow_radon_system(flows.constant_flow(m))
        rank, _, _ = radon.decide_system(sysf)
        expected = "injective" if m >= 3 else "noninjective"
        cases.append(
            SuiteCase(
                group=f"constant:{m}",
                expected=expected,
                computed="injective" if rank == m else "noninjective",
            )
        )
    for g in groups_upto(max_order):
        fl = flows.group_flow(g)
        orbs = flows.flow_orbits(fl)
        projections = {o.projection() for o in orbs if not o.stationary}
        subs = geodesics.cyclic_subgroups(g)
        cosets = {c for sub in subs for c in left_cosets(g, sub)}
        diag_ok = all(
            o.stationary == (o.states[0][0] == o.states[0][1]) for o in orbs
        )
        reversal_ok = _reversal_closed(orbs)
        match = projections == cosets
        cases.append(_case(
            f"group-flow {g.recipe}", "orbits = cosets",
            match and diag_ok and reversal_ok,
            f"match={match} diag={diag_ok} reversal={reversal_ok}",
        ))
    cases.append(_axiom_witness_case())
    cases.extend(_parity_cases())
    return _report("flows", cases)


def _reversal_closed(orbs) -> bool:
    state_sets = {frozenset(o.states) for o in orbs}
    return all(frozenset((b, a) for a, b in o.states) in state_sets for o in orbs)


def _axiom_witness_case() -> SuiteCase:
    bad_fixed = [[1, 1, 2], [1, 1, 2], [2, 1, 2]]  # s(0,0) = 1
    bad_target = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]  # s(1,... ) hits target
    got = []
    for table in (bad_fixed, bad_target):
        try:
            flows.validate_flow(3, table)
            got.append("accepted")
        except FlowAxiomError as exc:
            got.append(exc.axiom)
    ok = got[0] == "fixed-diagonal" and got[1] in ("avoids-target", "reflection")
    return _case("axiom-witnesses", "violations named", ok, f"got {got}")


def _parity_cases() -> list[SuiteCase]:
    """The constant flow comes from a group law only if every nonidentity
    element squares to the identity, which forces even order."""
    out = []
    for g in groups_upto(15):
        if g.order % 2 == 0 or g.order < 3:
            continue
        involutive = all(d <= 2 for d in g.elt_order)
        out.append(_case(
            f"parity {g.recipe}", "odd order admits no constant group flow",
            not involutive, "all elements involutive",
        ))
    return out


SUITES = {
    "abelian": suite_abelian,
    "products": suite_products,
    "catalog": suite_catalog,
    "bound": suite_bound,
    "lemma-prime": suite_lemma_prime,
    "subgroup-monotone": suite_subgroup_monotone,
    "spectral-abelian": suite_spectral_abelian,
    "maximal": suite_maximal,
    "flows": suite_flows,
}


# suites over a fixed list of groups, which take no sweep bound
_FIXED_CORPUS = ("catalog", "bound", "subgroup-monotone")


def run_suite(name: str, max_order: int | None = None) -> SuiteReport:
    """Run one named suite. A sweep bound is an input error when the suite
    has a fixed corpus, when it is below 2 (the smallest nontrivial group)
    or when it leaves the suite no cases, so a bound is never dropped
    silently and an empty suite can never pass."""
    if name not in SUITES:
        raise GroupSpecError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    fn = SUITES[name]
    if max_order is None:
        report = fn()
    elif name in _FIXED_CORPUS:
        raise InvalidOrderError(f"suite {name} has a fixed corpus, so no max order")
    elif max_order < 2:
        raise InvalidOrderError(f"max order {max_order} is below 2")
    else:
        report = fn(max_order=max_order)
    if not report.cases:
        raise InvalidOrderError(f"suite {name} has no cases up to order {max_order}")
    return report
