import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from coset_radon import centre, exactla, geodesics, groups, radon, verify
from coset_radon.errors import GroupSpecError


def test_abelian_class_counts():
    gs = verify.abelian_groups_upto(16)
    by_order = {}
    for g in gs:
        by_order[g.order] = by_order.get(g.order, 0) + 1
    # partition counts: one class per multiset of prime-power factors
    assert by_order[4] == 2
    assert by_order[8] == 3
    assert by_order[12] == 2
    assert by_order[16] == 5
    assert by_order[15] == 1


def test_abelian_classes_match_the_chain_of_cyclic_factors(monkeypatch):
    # named tables are wrapped, not checked: count the wraps
    builds = []
    wrap = groups._wrap

    def counting(t, recipe):
        builds.append(recipe)
        return wrap(t, recipe)

    monkeypatch.setattr(groups, "_wrap", counting)
    gs = verify.abelian_groups_upto(64)
    assert len(gs) == len(builds) == 116  # one build per class
    monkeypatch.undo()
    for g in gs:
        factors = [int(f) for f in g.recipe[1:].split("xC")]
        assert factors == sorted(factors)
        chain = groups.make_cyclic(factors[0])
        for f in factors[1:]:
            chain = groups.make_direct_product(chain, groups.make_cyclic(f))
        assert chain.recipe == g.recipe
        assert np.array_equal(chain.table, g.table), g.recipe
        assert chain.generators == g.generators, g.recipe


def test_groups_upto_contains_named_families():
    recipes = {g.recipe for g in verify.groups_upto(24)}
    assert "D4" in recipes
    assert "Dic2" in recipes
    assert "A4" in recipes
    assert "S4" in recipes
    assert all(g.order <= 24 for g in verify.groups_upto(24))


def test_random_functions_are_reproducible():
    a = verify.random_rational_functions(5, 3, seed=11)
    b = verify.random_rational_functions(5, 3, seed=11)
    assert a == b
    assert len(a) == 3 and all(len(f) == 5 for f in a)


def test_suite_case_semantics():
    ok = verify.SuiteCase(group="C2", expected="x", computed="x")
    bad = verify.SuiteCase(group="C2", expected="x", computed="y")
    assert ok.passed and not bad.passed
    report = verify.SuiteReport(suite="demo", cases=(ok, bad))
    assert report.total == 2
    assert report.failed == 1
    assert not report.passed


def test_case_repeats_expectation_or_reports_detail():
    good = verify._case("C2", "x", True, "saw y")
    bad = verify._case("C2", "x", False, "saw y")
    assert good == verify.SuiteCase(group="C2", expected="x", computed="x")
    assert bad == verify.SuiteCase(group="C2", expected="x", computed="saw y")
    assert good.passed and not bad.passed


def test_report_orders_cases_canonically():
    report = verify.run_suite("catalog")
    keys = [(c.group, c.expected) for c in report.cases]
    assert keys == sorted(keys)


def test_run_suite_unknown_name():
    with pytest.raises(GroupSpecError) as err:
        verify.run_suite("nonsense")
    assert str(err.value) == (
        f"unknown suite 'nonsense'; choose from {', '.join(sorted(verify.SUITES))}"
    )


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_passes(name):
    # keep the heavyweight corpora small enough for routine runs
    caps = {
        "abelian": 36,
        "products": 40,
        "spectral-abelian": 32,
        "maximal": 36,
        "lemma-prime": None,
        "flows": 16,
    }
    report = verify.run_suite(name, max_order=caps.get(name))
    assert report.total > 0
    failed = [c for c in report.cases if not c.passed]
    assert not failed, failed[:5]


_COMPOSITES = [n for n in range(4, 13) if not exactla.is_prime(n)]


def _short_of(p):
    """centre.prime_element with the subgroups of order p left out of z."""
    prime_element = centre.prime_element

    def short_of_p(g):
        z, rows = prime_element(g)
        hit = np.array(g.elt_order) == p
        z = np.where(hit, 0, z)
        z[0] -= np.count_nonzero(hit) // (p - 1)
        return z, rows

    return short_of_p


@pytest.mark.parametrize("p,failed", [(2, 200), (3, 42)])
def test_lemma_prime_fails_without_the_subgroups_of_one_prime_order(monkeypatch, p, failed):
    # a prime family short of its subgroups of order p spans less than the
    # length-n rows wherever an element of order p lies in a swept subgroup
    monkeypatch.setattr(centre, "prime_element", _short_of(p))
    report = verify.suite_lemma_prime()
    assert (report.total, report.failed) == (318, failed)
    assert {c.computed for c in report.cases if not c.passed} == {"inconsistent"}


_ORACLE_LENGTHS = _COMPOSITES + [24, 60]


def _rows_oracle(g, n, short_of=None):
    """Whether the prime rows, less those of the subgroups of order
    short_of, have the exact rank of those rows stacked on the left cosets
    of every cyclic H with 1 < |H| | n."""
    prime = [r for r in radon.build_system(g, "prime").matrix if sum(r) != short_of]
    swept = [
        [int(x in coset) for x in range(g.order)]
        for h in geodesics.cyclic_subgroups(g)
        if n % len(h) == 0
        for coset in groups.left_cosets(g, h)
    ]
    return exactla.rank_exact(prime + swept, g.order) == exactla.rank_exact(prime, g.order)


@pytest.mark.parametrize("short_of", [None, 2, 3])
def test_composite_consistency_matches_the_rank_of_the_rows(monkeypatch, short_of):
    # with the subgroups of order p out of z_p and out of the prime rows,
    # the centre and the rows still agree, and some length now adds a row
    # the prime family misses
    corpus = verify.groups_upto(12)
    cases = [(g, n) for g in corpus for n in _ORACLE_LENGTHS]
    want = {(g.recipe, n): _rows_oracle(g, n, short_of) for g, n in cases}
    if short_of:
        monkeypatch.setattr(centre, "prime_element", _short_of(short_of))
    got = {(g.recipe, n): radon.composite_consistency(g, n) for g, n in cases}
    assert got == want
    assert (False in want.values()) == bool(short_of)


@pytest.mark.parametrize("max_order,compared", [(24, 58), (128, 319)])
def test_lemma_prime_compares_nullities_wherever_a_kernel_could_shrink(
    monkeypatch, max_order, compared
):
    # one prime nullity per group, then, in a group with a prime kernel, one
    # comparison per distinct set of subgroup orders dividing some n, the
    # nontrivial cyclic subgroups the length-n orbits sweep
    calls = []
    nullity = centre.nullity

    def counting(*args):
        calls.append(args[0].recipe)
        return nullity(*args)

    monkeypatch.setattr(centre, "nullity", counting)
    report = verify.suite_lemma_prime(max_order)
    corpus = verify.groups_upto(max_order)
    assert report.passed and report.total == len(corpus) * len(_COMPOSITES)
    monkeypatch.undo()
    want = 0
    for g in corpus:
        if centre.nullity(g, centre.prime_element(g)[0]):
            orders = {len(h) for h in geodesics.cyclic_subgroups(g)}
            swept = {frozenset(d for d in orders if n % d == 0) for n in _COMPOSITES}
            want += len(swept - {frozenset()})
    assert len(calls) - len(corpus) == want == compared


def test_lemma_prime_central_sums_stay_below_p():
    # S = sum of |H| over both families, the range centre.nullity searches
    # for eigenvalues, is at most (n + 2)(|G| - 1)
    assert (max(_COMPOSITES) + 2) * (groups.MAX_TABLE_ORDER - 1) < exactla.P
    named = [groups.from_name(name) for name in ("S5", "A5", "C2xC2xC2xC2", "C60")]
    for g in verify.groups_upto(48) + named:
        z_p = centre.prime_element(g)[0]
        subs = geodesics.cyclic_subgroups(g)
        for n in _COMPOSITES:
            swept = [h for h in subs if n % len(h) == 0]
            z_n = centre.central_element(g, swept) if swept else 0
            assert int((z_p + z_n).sum()) <= (n + 2) * (g.order - 1), (g.recipe, n)


def test_quotient_cases_take_each_subgroup_once_by_its_least_generator():
    # reference: every element of order 2 or 3, the first to reach its subgroup
    g = groups.from_name("C6xC6")
    want = {}
    for x in range(1, g.order):
        if g.elt_order[x] in (2, 3):
            want.setdefault(groups.cyclic_subgroup(g, x).elements, x)
    cases = verify._quotient_cases()
    assert sorted(c.group for c in cases) == sorted(
        f"C6xC6/<{x}> order {36 // len(sub)}" for sub, x in want.items()
    )
    # three subgroups of order 2 and four of order 3
    assert len(cases) == 7 and all(c.passed for c in cases)


def test_suite_abelian_case_shape():
    report = verify.run_suite("abelian", max_order=12)
    assert all("factors" in c.expected or c.expected for c in report.cases)
    groups_seen = {c.group for c in report.cases}
    assert "C2xC2" in groups_seen or any("C2" in g for g in groups_seen)


def test_random_rational_functions_draw_the_same_values():
    def one_fraction_per_value(n, count, seed):
        rng = random.Random(seed)
        return [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(count)
        ]

    cases = [(12, 20, 0), (48, 20, 7 ^ 48), (5, 3, 12345), (1, 1, 2**40)]
    cases += [(1, 30, 9), (4, 0, 5), (3, 4, 2**64 + 3)]
    for n, count, seed in cases:
        got = verify.random_rational_functions(n, count, seed)
        assert got == one_fraction_per_value(n, count, seed)
        assert all(type(v) is Fraction for f in got for v in f)


def test_prime_power_splits_in_order_and_without_cycles():
    gc.collect()
    gc.disable()
    try:
        splits = verify._prime_power_splits(2, 4)
        found = gc.collect()
    finally:
        gc.enable()
    assert splits == [[16], [8, 2], [4, 4], [4, 2, 2], [2, 2, 2, 2]]
    assert found == 0
    assert [len(verify._prime_power_splits(3, e)) for e in range(1, 9)] == [
        1, 2, 3, 5, 7, 11, 15, 22
    ]
